/* The closed PID loop of both channels along a two-stretch route, for rows of gains: plant._run_rows_py in C; and,
 * at the end of the file, evopid_csv, the CSV cells of harness._write_csv: plant._csv_rows_py in C, byte for byte,
 * in the builds that define EVOPID_CSV.
 * Neither calls a libm function: the loop takes its one exp from the caller, and the cells are worked out on integers.
 *
 * Every double operation of a channel is the Python twin's, in its order, so the results
 * are bit-identical to it when compiled with -ffp-contract=off (no fused multiply-add)
 * and without -ffast-math. The loop runs on vectors of LANES doubles (lanes): each row
 * holds its two channels in two adjacent lanes, linear then angular, and each vector
 * operation is the twin's scalar one on each lane, so no two lanes ever meet. The width
 * is fixed at compile time, for the one body below: under __AVX__ a vector is 256 bits
 * and holds two rows (lanes 0-1 the first, 2-3 the second), otherwise it is a two-wide
 * pair holding one row. One channel's sample step is a serial chain of dependent
 * operations, a division among them, so the rows run in blocks of BLOCK: each row of a
 * block has its own state and gains, and one sample loop steps every vector of the
 * block, where the processor overlaps their independent chains; the twin runs one
 * channel of one row after the other. Row PER_VECTOR * v + h of the block at row r0 is
 * row r0 + PER_VECTOR * v + h; the last block holds rows - r0 rows when fewer are left.
 * When the last vector has fewer rows than it holds, its free lanes rerun the last row:
 * they read no gains past that row and write nothing.
 * gains holds rows x 6 doubles (linear kp ki kd, then angular kp ki kd). run holds the
 * route's 13: the plant, 2 x 4 (per channel: actuator limit, DC gain, decay, start
 * velocity), then dt, start, end and the two stretches' sample counts first and second,
 * whole doubles that the caller has checked, cast here to int64_t. The caller takes
 * decay = exp(-dt / time_constant) in Python, so no libm function is called here. Each
 * row writes its two average errors, the error sum divided by first + second, and its two
 * final velocities, linear then angular, to results (rows x 4). A nonfinite final velocity
 * on either channel is the divergence verdict: both average errors are then DBL_MAX,
 * plant.DIVERGENCE_AE. When actual is not NULL it also receives the measurement of every
 * sample, rows x 2 x (first + second) doubles.
 * On a 2-core x86-64 host (GCC 12, -O2; timeit minimums of bare calls by address), 308
 * rows took 247 us two-wide and 165 us four-wide, and one row 6.8 and 7.0 us, of which
 * the ctypes call itself is about 0.8 us; ROADMAP.md lists the other widths and splits
 * measured.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
/* min_pd and max_pd are the builtins that GCC's and Clang's _mm256_min_pd, _mm_min_pd and their max twins
 * wrap, one instruction each; <immintrin.h> would add 0.4 s to every compile of this file. */
#ifdef __AVX__
#define PER_VECTOR 2
#define min_pd __builtin_ia32_minpd256
#define max_pd __builtin_ia32_maxpd256
#else
#define PER_VECTOR 1
#ifdef __SSE2__
#define min_pd __builtin_ia32_minpd
#define max_pd __builtin_ia32_maxpd
#endif
#endif

#define BLOCK 16
#define LANES (2 * PER_VECTOR)
#define VECTORS (BLOCK / PER_VECTOR)

typedef double lanes __attribute__((vector_size(8 * LANES)));
typedef int64_t lanes_bits __attribute__((vector_size(8 * LANES)));

/* max(-limit, min(limit, c)) per lane, without a branch; equal to the twin's
 * "if c > limit: limit, elif c < -limit: -limit, else c" for every c when limit > 0,
 * which ChannelParams requires. min(limit, c) is limit < c ? limit : c, and
 * max(-limit, m) is -limit > m ? -limit : m, the rule of SSE2's and AVX's min and max:
 * on an unordered or equal comparison the second operand is the result. So a c above
 * limit gives limit, as in the twin; a c below -limit passes min (it is below limit)
 * and gives -limit; any other c passes both unchanged. A NaN c compares false
 * everywhere and passes through, as it does in the twin; a signed zero lies strictly
 * between -limit and limit, so it passes too and keeps its sign. Without SSE2 the
 * same two comparisons run as ternaries on the pair's two lanes. The vector form is
 * kept for speed: GCC 12 at -O2 builds the ternaries as scalar minsd/maxsd per lane
 * with shuffles, which on a 2-core x86-64 host took 284 against 226 us for 308 rows
 * and 6.9 against 6.6 us for one row (timeit minimums of bare calls). */
static inline lanes clamp(lanes c, lanes limit)
{
#ifdef min_pd
    return max_pd(-limit, min_pd(limit, c));
#else
    lanes m = {limit[0] < c[0] ? limit[0] : c[0], limit[1] < c[1] ? limit[1] : c[1]};
    return (lanes){-limit[0] > m[0] ? -limit[0] : m[0], -limit[1] > m[1] ? -limit[1] : m[1]};
#endif
}

/* |x| per lane by clearing the sign bit, as fabs does, also on a NaN */
static inline lanes magnitude(lanes x)
{
    return (lanes)((lanes_bits)x & INT64_MAX);
}

void evopid_run(int64_t rows, const double *gains, const double *run, double *results, double *actual)
{
    /* read once: results and actual may alias run as far as the compiler knows */
    const double dt = run[8], start = run[9], end = run[10];
    const int64_t first = (int64_t)run[11], second = (int64_t)run[12];
    lanes limit, dc_gain, decay, initial;
    for (int e = 0; e < LANES; e++) {
        const double *channel = run + 4 * (e % 2); /* linear, angular */
        limit[e] = channel[0];
        dc_gain[e] = channel[1];
        decay[e] = channel[2];
        initial[e] = channel[3];
    }
    const int64_t samples = first + second;
    for (int64_t r0 = 0; r0 < rows; r0 += BLOCK) {
        int n = (int)(rows - r0 < BLOCK ? rows - r0 : BLOCK);
        int vectors = (n + PER_VECTOR - 1) / PER_VECTOR;
        lanes kp[VECTORS], ki[VECTORS], kd[VECTORS], velocity[VECTORS], integral[VECTORS], prev_error[VECTORS],
            total[VECTORS];
        for (int v = 0; v < vectors; v++) {
            for (int e = 0; e < LANES; e++) {
                int64_t row = r0 + PER_VECTOR * v + e / 2;
                const double *k = gains + 6 * (row < rows ? row : rows - 1) + 3 * (e % 2);
                kp[v][e] = k[0];
                ki[v][e] = k[1];
                kd[v][e] = k[2];
            }
            velocity[v] = initial;
            integral[v] = (lanes){0.0};
            prev_error[v] = start - initial;
            total[v] = (lanes){0.0};
        }
        double setpoint = start;
        int64_t count = first, i = 0;
        for (int stretch = 0; stretch < 2; stretch++) {
            for (int64_t j = 0; j < count; j++, i++) {
                for (int v = 0; v < vectors; v++) {
                    if (actual) {
                        double *trace = actual + 2 * (r0 + PER_VECTOR * v) * samples + i;
                        for (int e = 0; e < LANES && PER_VECTOR * v + e / 2 < n; e++)
                            trace[e * samples] = velocity[v][e];
                    }
                    lanes error = setpoint - velocity[v];
                    total[v] += magnitude(error);
                    integral[v] = integral[v] + error * dt;
                    lanes derivative = (error - prev_error[v]) / dt;
                    prev_error[v] = error;
                    lanes command = clamp(kp[v] * error + ki[v] * integral[v] + kd[v] * derivative, limit);
                    lanes target = command * dc_gain;
                    velocity[v] = target + (velocity[v] - target) * decay;
                }
            }
            setpoint = end;
            count = second;
        }
        for (int v = 0; v < vectors; v++) {
            lanes ae = total[v] / (double)samples;
            for (int h = 0; h < PER_VECTOR && PER_VECTOR * v + h < n; h++) {
                double *out = results + 4 * (r0 + PER_VECTOR * v + h);
                int l = 2 * h; /* the row's linear lane; its angular one is l + 1 */
                int finite = isfinite(velocity[v][l]) && isfinite(velocity[v][l + 1]);
                out[0] = finite ? ae[l] : DBL_MAX;
                out[1] = finite ? ae[l + 1] : DBL_MAX;
                out[2] = velocity[v][l];
                out[3] = velocity[v][l + 1];
            }
        }
    }
}

/* 1 where this CPU and its OS run AVX, else 0; asked of the baseline build, which any x86-64 host can run, before
 * the -mavx one is loaded. __builtin_cpu_supports returns a mask, not 1, and libgcc's check there includes the OS
 * saving the YMM registers. */
int evopid_has_avx(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") != 0;
#else
    return 0;
#endif
}

/* The CSV cells of harness._write_csv: plant._csv_rows_py in C, each the bytes of its repr.
 *
 * evopid_csv writes rows start to start + rows - 1 of width columns to out, each cell followed by ',' and each row's
 * last by '\n', and returns the bytes written: at most 24 a cell (plant._CSV_CELL), as "-1.2345678901234567e-05,".
 * columns holds, per column, the address of its first value and 1 for an array("q"), whose cells are plain integers,
 * or 0 for an array("d"). It writes a double only where it is exact: 0.0, -0.0, DBL_MAX (plant.DIVERGENCE_AE) and
 * 1e-20 <= |x| < 2**52; at any other it returns -1 - i, i that cell's index in the chunk, row by row. Without
 * unsigned __int128 it is a stub returning -1.
 * On a 2-core x86-64 host (GCC 12, -O2) a double of 17 digits took about 270 ns, against 560 ns for repr, k * 0.02
 * about 80 ns against 300, and an int64 8 ns against 105 (one call on 100,000 cells; timeit minimums).
 * It is compiled only where EVOPID_CSV is defined, in a build of its own (plant._c_csv), built on a process's first
 * CSV write: it doubles the compile time (0.10 to 0.20 s a build on that host), which a process that writes no CSV
 * should not pay.
 */
#ifdef EVOPID_CSV
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* The shortest digits that read back as x, 1e-20 <= x < 2**52, as chars; returns their count and sets *decpt so that
 * x reads 0.DIGITS x 10**decpt. This is the mode 0 "leftright" loop of Gay's dtoa in CPython's Python/dtoa.c, on
 * exact integers: x is b / S, and the half-gaps to its neighbours mlo / S below and mhi / S above. In this range each
 * of them stays below 10 S < 2**128. No midpoint between two doubles here has 17 significant digits or fewer, so j
 * and j1 below are never 0 and the tests of m's parity never decide; they stay as dtoa has them. */
static int shortest(double x, char *digits, int *decpt)
{
    uint64_t bits;
    memcpy(&bits, &x, 8);
    int biased = (int)(bits >> 52), n = 0;
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52;
    int even = !(m & 1), e = biased - 1075; /* x = m 2**e, -119 <= e <= -1 */
    u128 b = (u128)m << 1, S = (u128)1 << (1 - e), mlo = 1, mhi = 1, scale = 1;
    if (m == 1ull << 52 && biased > 1) { /* a power of two: the gap below is half the gap above */
        b <<= 1;
        S <<= 1;
        mhi = 2;
    }
    /* floor(log10 x) is k or k + 1 for k = floor((biased - 1023) log10 2), which 78913 / 2**18 gives exactly here */
    int log2 = biased - 1023;
    int k = log2 >= 0 ? log2 * 78913 >> 18 : -((-log2 * 78913 + (1 << 18) - 1) >> 18);
    for (int i = k < 0 ? -k : k; i > 0; i--)
        scale *= 10;
    if (k >= 0) {
        S *= scale;
    } else {
        b *= scale;
        mlo *= scale;
        mhi *= scale;
    }
    if (b >= 10 * S) {
        S *= 10;
        k++;
    }
    for (;;) {
        int dig = 0; /* b / S, and b becomes b % S: b < 10 S, so at most nine subtractions */
        while (b >= S) {
            b -= S;
            dig++;
        }
        int j = b < mlo ? -1 : b > mlo, j1 = mhi > S ? 1 : b < S - mhi ? -1 : b > S - mhi, up = 0;
        if (j1 == 0 && even) {
            up = dig == 9 || j > 0;
        } else if (j < 0 || (j == 0 && even)) {
            if (b != 0 && j1 > 0) {
                b <<= 1;
                up = b > S || (b == S && dig & 1);
            }
        } else if (j1 > 0) {
            up = 1;
        } else {
            digits[n++] = (char)('0' + dig);
            b *= 10;
            mlo *= 10;
            mhi *= 10;
            continue;
        }
        /* the last digit; one that rounds up past 9 drops with the 9s before it, and the digit before them goes up */
        for (dig += up; dig == 10 && n > 0; n--)
            dig = digits[n - 1] - '0' + 1;
        if (dig == 10) { /* every digit was a 9: the number is 10**(k + 1) */
            dig = 1;
            k++;
        }
        digits[n++] = (char)('0' + dig);
        *decpt = k + 1;
        return n;
    }
}

/* repr(x) at p, laid out as CPython's format_float_short lays out mode 0's digits for 'r'; the end of the text, or
 * NULL where x is not written here */
static char *put_double(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, 8);
    double a = x < 0 ? -x : x; /* |x|; a NaN stays a NaN */
    if (x == DBL_MAX) {
        memcpy(p, "1.7976931348623157e+308", 23);
        return p + 23;
    }
    if (bits >> 63)
        *p++ = '-';
    if (a == 0.0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    if (!(a >= 1e-20 && a < 4503599627370496.0)) /* a NaN fails too */
        return NULL;
    char digits[17];
    int decpt, n = shortest(a, digits, &decpt);
    if (decpt <= -4) { /* d.ddde-XX: the exponent is -5 to -20 here, and repr writes at least two digits */
        *p++ = digits[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, n - 1);
            p += n - 1;
        }
        memcpy(p, "e-", 2);
        p[2] = (char)('0' + (1 - decpt) / 10);
        p[3] = (char)('0' + (1 - decpt) % 10);
        return p + 4;
    }
    if (decpt <= 0) { /* 0.000ddd */
        memcpy(p, "0.000", 2 - decpt);
        memcpy(p + 2 - decpt, digits, n);
        return p + 2 - decpt + n;
    }
    if (decpt < n) { /* dd.ddd */
        memcpy(p, digits, decpt);
        p[decpt] = '.';
        memcpy(p + decpt + 1, digits + decpt, n - decpt);
        return p + n + 1;
    }
    memcpy(p, digits, n); /* ddd00.0 */
    memset(p + n, '0', decpt - n);
    memcpy(p + decpt, ".0", 2);
    return p + decpt + 2;
}

static char *put_int(char *p, int64_t v)
{
    uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    char text[20];
    int n = 0;
    if (v < 0)
        *p++ = '-';
    do {
        text[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (n)
        *p++ = text[--n];
    return p;
}

int64_t evopid_csv(int64_t start, int64_t rows, int64_t width, const int64_t *columns, char *out)
{
    char *p = out;
    for (int64_t r = start; r < start + rows; r++) {
        for (int64_t c = 0; c < width; c++) {
            const void *column = (const void *)(intptr_t)columns[2 * c];
            if (columns[2 * c + 1])
                p = put_int(p, ((const int64_t *)column)[r]);
            else if (!(p = put_double(p, ((const double *)column)[r])))
                return -1 - ((r - start) * width + c);
            *p++ = c + 1 < width ? ',' : '\n';
        }
    }
    return p - out;
}
#else
int64_t evopid_csv(int64_t start, int64_t rows, int64_t width, const int64_t *columns, char *out)
{
    (void)start, (void)rows, (void)width, (void)columns, (void)out;
    return -1;
}
#endif
#endif
