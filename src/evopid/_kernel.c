/* The closed PID loop of both channels along a two-stretch route, for rows of gains: plant._run_rows_py in C.
 *
 * Every double operation of a channel is the Python twin's, in its order, so the results
 * are bit-identical to it when compiled with -ffp-contract=off (no fused multiply-add)
 * and without -ffast-math. A row holds its two channels as one two-wide vector (a pair):
 * element 0 is linear, element 1 angular, and each vector operation is the twin's scalar
 * one on each element, so the two channels never meet. One channel's sample step is a
 * serial chain of dependent operations, a division among them, so the rows run in blocks
 * of BLOCK: each row of a block has its own state and gains, and one sample loop steps
 * every row, where the processor overlaps their independent chains; the twin runs one
 * channel of one row after the other. Row b of the block at row r0 is row r0 + b; the
 * last block holds rows - r0 rows when fewer are left.
 * gains holds rows x 6 doubles (linear kp ki kd, then angular kp ki kd) and plant 2 x 4
 * (per channel: actuator limit, DC gain, decay, start velocity). The caller takes
 * decay = exp(-dt / time_constant) in Python, so no libm function is called here. Each
 * row writes its two average errors, the error sum divided by first + second, and its two
 * final velocities, linear then angular, to results (rows x 4). A nonfinite final velocity
 * on either channel is the divergence verdict: both average errors are then DBL_MAX,
 * plant.DIVERGENCE_AE. When actual is not NULL it also receives the measurement of every
 * sample, rows x 2 x (first + second) doubles.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

#define BLOCK 16

typedef double pair __attribute__((vector_size(16)));
typedef int64_t pair_bits __attribute__((vector_size(16)));

/* max(-limit, min(limit, c)) per element, without a branch; equal to the twin's
 * "if c > limit: limit, elif c < -limit: -limit, else c" for every c when limit > 0,
 * which ChannelParams requires. min(limit, c) is limit < c ? limit : c, and
 * max(-limit, m) is -limit > m ? -limit : m, both _mm_min_pd and _mm_max_pd's rule:
 * on an unordered or equal comparison the second operand is the result. So a c above
 * limit gives limit, as in the twin; a c below -limit passes min (it is below limit)
 * and gives -limit; any other c passes both unchanged. A NaN c compares false
 * everywhere and passes through, as it does in the twin; a signed zero lies strictly
 * between -limit and limit, so it passes too and keeps its sign. The SSE2 form is kept
 * for speed: GCC 12 at -O2 builds the ternaries as scalar minsd/maxsd per element with
 * shuffles, which on a 2-core x86-64 host took 284 against 226 us for 308 rows and 6.9
 * against 6.6 us for one row (timeit minimums of bare calls). */
static inline pair clamp(pair c, pair limit)
{
#ifdef __SSE2__
    return _mm_max_pd(-limit, _mm_min_pd(limit, c));
#else
    pair m = {limit[0] < c[0] ? limit[0] : c[0], limit[1] < c[1] ? limit[1] : c[1]};
    return (pair){-limit[0] > m[0] ? -limit[0] : m[0], -limit[1] > m[1] ? -limit[1] : m[1]};
#endif
}

/* |x| per element by clearing the sign bit, as fabs does, also on a NaN */
static inline pair magnitude(pair x)
{
    return (pair)((pair_bits)x & (pair_bits){INT64_MAX, INT64_MAX});
}

void evopid_run(int64_t rows, const double *gains, const double *plant, double dt, double start, int64_t first,
                double end, int64_t second, double *results, double *actual)
{
    const double *p = plant, *q = plant + 4; /* linear, angular */
    const pair limit = {p[0], q[0]}, dc_gain = {p[1], q[1]}, decay = {p[2], q[2]}, initial = {p[3], q[3]};
    const int64_t samples = first + second;
    for (int64_t r0 = 0; r0 < rows; r0 += BLOCK) {
        int n = (int)(rows - r0 < BLOCK ? rows - r0 : BLOCK);
        pair kp[BLOCK], ki[BLOCK], kd[BLOCK], velocity[BLOCK], integral[BLOCK], prev_error[BLOCK], total[BLOCK];
        for (int b = 0; b < n; b++) {
            const double *k = gains + 6 * (r0 + b), *a = k + 3;
            kp[b] = (pair){k[0], a[0]};
            ki[b] = (pair){k[1], a[1]};
            kd[b] = (pair){k[2], a[2]};
            velocity[b] = initial;
            integral[b] = (pair){0.0, 0.0};
            prev_error[b] = start - initial;
            total[b] = (pair){0.0, 0.0};
        }
        double setpoint = start;
        int64_t count = first, i = 0;
        for (int stretch = 0; stretch < 2; stretch++) {
            for (int64_t j = 0; j < count; j++, i++) {
                for (int b = 0; b < n; b++) {
                    if (actual) {
                        double *trace = actual + 2 * (r0 + b) * samples + i;
                        trace[0] = velocity[b][0];
                        trace[samples] = velocity[b][1];
                    }
                    pair error = setpoint - velocity[b];
                    total[b] += magnitude(error);
                    integral[b] = integral[b] + error * dt;
                    pair derivative = (error - prev_error[b]) / dt;
                    prev_error[b] = error;
                    pair command = clamp(kp[b] * error + ki[b] * integral[b] + kd[b] * derivative, limit);
                    pair target = command * dc_gain;
                    velocity[b] = target + (velocity[b] - target) * decay;
                }
            }
            setpoint = end;
            count = second;
        }
        for (int b = 0; b < n; b++) {
            double *out = results + 4 * (r0 + b);
            pair ae = total[b] / (double)samples;
            int finite = isfinite(velocity[b][0]) && isfinite(velocity[b][1]);
            out[0] = finite ? ae[0] : DBL_MAX;
            out[1] = finite ? ae[1] : DBL_MAX;
            out[2] = velocity[b][0];
            out[3] = velocity[b][1];
        }
    }
}
