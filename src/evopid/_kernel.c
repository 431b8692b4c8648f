/* The closed PID loop of both channels along a two-stretch route, for rows of gains: plant._run_rows_py in C.
 *
 * Every double operation of a channel is the Python twin's, in its order, so the results
 * are bit-identical to it when compiled with -ffp-contract=off (no fused multiply-add)
 * and without -ffast-math. One channel's sample step is a serial chain of dependent
 * operations, a division among them, so the rows run in blocks of BLOCK: each (row, channel)
 * pair of a block is a lane with its own state and constants, and one sample loop steps
 * every lane, where the processor overlaps their independent chains; the twin runs one
 * channel of one row after the other. Lane l of the block at row r0 is row r0 + l / 2,
 * channel l % 2; the last block holds 2 x (rows - r0) lanes when fewer rows are left.
 * gains holds rows x 6 doubles (linear kp ki kd, then angular kp ki kd) and plant 2 x 4
 * (per channel: actuator limit, DC gain, decay, start velocity). The caller takes
 * decay = exp(-dt / time_constant) in Python, so no libm function is called here. Each
 * row writes its two error sums and its two final velocities, linear then angular, to
 * results (rows x 4). When actual is not NULL it also receives the measurement of every
 * sample, rows x 2 x (first + second) doubles.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define BLOCK 4

void evopid_run(int64_t rows, const double *gains, const double *plant, double dt, double start, int64_t first,
                double end, int64_t second, double *results, double *actual)
{
    for (int64_t r0 = 0; r0 < rows; r0 += BLOCK) {
        int lanes = 2 * (int)(rows - r0 < BLOCK ? rows - r0 : BLOCK);
        double kp[2 * BLOCK], ki[2 * BLOCK], kd[2 * BLOCK], limit[2 * BLOCK], dc_gain[2 * BLOCK], decay[2 * BLOCK];
        double velocity[2 * BLOCK], integral[2 * BLOCK], prev_error[2 * BLOCK], total[2 * BLOCK];
        for (int l = 0; l < lanes; l++) {
            const double *k = gains + 6 * (r0 + l / 2) + 3 * (l % 2), *p = plant + 4 * (l % 2);
            kp[l] = k[0];
            ki[l] = k[1];
            kd[l] = k[2];
            limit[l] = p[0];
            dc_gain[l] = p[1];
            decay[l] = p[2];
            velocity[l] = p[3];
            integral[l] = 0.0;
            prev_error[l] = start - velocity[l];
            total[l] = 0.0;
        }
        double setpoint = start;
        int64_t count = first, i = 0;
        for (int stretch = 0; stretch < 2; stretch++) {
            for (int64_t j = 0; j < count; j++, i++) {
                for (int l = 0; l < lanes; l++) {
                    if (actual)
                        actual[(2 * r0 + l) * (first + second) + i] = velocity[l];
                    double error = setpoint - velocity[l];
                    total[l] += fabs(error);
                    integral[l] = integral[l] + error * dt;
                    double derivative = (error - prev_error[l]) / dt;
                    prev_error[l] = error;
                    double command = kp[l] * error + ki[l] * integral[l] + kd[l] * derivative;
                    /* compared, not fmin/fmax: a NaN command passes through as in Python */
                    if (command > limit[l])
                        command = limit[l];
                    else if (command < -limit[l])
                        command = -limit[l];
                    double target = command * dc_gain[l];
                    velocity[l] = target + (velocity[l] - target) * decay[l];
                }
            }
            setpoint = end;
            count = second;
        }
        for (int l = 0; l < lanes; l++) {
            results[4 * (r0 + l / 2) + l % 2] = total[l];
            results[4 * (r0 + l / 2) + 2 + l % 2] = velocity[l];
        }
    }
}
