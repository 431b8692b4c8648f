/* One channel's closed PID loop along a two-stretch route: plant._run_channel_py in C.
 *
 * Every double operation is the Python loop's, in its order, so the results are
 * bit-identical to it when compiled with -ffp-contract=off (no fused multiply-add)
 * and without -ffast-math. The caller passes decay = exp(-dt / time_constant), taken
 * in Python, so no libm function is called here. When actual is not NULL it
 * receives the measurement of every sample, first + second doubles in all.
 * Returns the sum of |setpoint - measurement| and stores the final velocity.
 */
#include <math.h>
#include <stdint.h>

double evopid_run_channel(double kp, double ki, double kd, double limit, double dc_gain, double decay,
                          double dt, double velocity, double start, int64_t first, double end,
                          int64_t second, double *actual, double *final_velocity)
{
    double integral = 0.0, prev_error = start - velocity, total = 0.0;
    double setpoint = start;
    int64_t count = first, i = 0;
    for (int stretch = 0; stretch < 2; stretch++) {
        for (int64_t j = 0; j < count; j++, i++) {
            if (actual)
                actual[i] = velocity;
            double error = setpoint - velocity;
            total += fabs(error);
            integral = integral + error * dt;
            double derivative = (error - prev_error) / dt;
            prev_error = error;
            double command = kp * error + ki * integral + kd * derivative;
            /* compared, not fmin/fmax: a NaN command passes through as in Python */
            if (command > limit)
                command = limit;
            else if (command < -limit)
                command = -limit;
            double target = command * dc_gain;
            velocity = target + (velocity - target) * decay;
        }
        setpoint = end;
        count = second;
    }
    *final_velocity = velocity;
    return total;
}
