/* The closed PID loop of both channels along a two-stretch route, for rows of gains: plant._run_rows_py in C.
 *
 * Every double operation of a channel is the Python twin's, in its order, so the results
 * are bit-identical to it when compiled with -ffp-contract=off (no fused multiply-add)
 * and without -ffast-math. The two channels share no value, so they run side by side in
 * one sample loop, where the processor overlaps their dependency chains, while the twin
 * runs one after the other. gains holds rows x 6 doubles (linear kp ki kd, then angular
 * kp ki kd) and plant 2 x 4 (per channel: actuator limit, DC gain, decay, start velocity).
 * The caller takes decay = exp(-dt / time_constant) in Python, so no libm function is
 * called here. Each row writes its two error sums and its two final velocities, linear
 * then angular, to results (rows x 4). When actual is not NULL it also receives the
 * measurement of every sample, rows x 2 x (first + second) doubles.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

void evopid_run(int64_t rows, const double *gains, const double *plant, double dt, double start, int64_t first,
                double end, int64_t second, double *results, double *actual)
{
    for (int64_t r = 0; r < rows; r++) {
        double velocity[2], integral[2] = {0.0, 0.0}, prev_error[2], total[2] = {0.0, 0.0};
        for (int c = 0; c < 2; c++) {
            velocity[c] = plant[4 * c + 3];
            prev_error[c] = start - velocity[c];
        }
        double setpoint = start;
        int64_t count = first, i = 0;
        for (int stretch = 0; stretch < 2; stretch++) {
            for (int64_t j = 0; j < count; j++, i++) {
                for (int c = 0; c < 2; c++) {
                    const double *k = gains + 6 * r + 3 * c, *p = plant + 4 * c;
                    if (actual)
                        actual[(2 * r + c) * (first + second) + i] = velocity[c];
                    double error = setpoint - velocity[c];
                    total[c] += fabs(error);
                    integral[c] = integral[c] + error * dt;
                    double derivative = (error - prev_error[c]) / dt;
                    prev_error[c] = error;
                    double command = k[0] * error + k[1] * integral[c] + k[2] * derivative;
                    /* compared, not fmin/fmax: a NaN command passes through as in Python */
                    if (command > p[0])
                        command = p[0];
                    else if (command < -p[0])
                        command = -p[0];
                    double target = command * p[1];
                    velocity[c] = target + (velocity[c] - target) * p[2];
                }
            }
            setpoint = end;
            count = second;
        }
        for (int c = 0; c < 2; c++) {
            results[4 * r + c] = total[c];
            results[4 * r + 2 + c] = velocity[c];
        }
    }
}
