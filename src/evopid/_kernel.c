/* Four exports, each a Python twin in C, bit for bit, which plant._load_kernel checks against that twin before use:
 * - evopid_run, the closed PID loop of both channels along a two-stretch route, for rows of gains: plant._run_rows_py;
 * - evopid_times, the time column of a recorded run: plant._times_py;
 * - evopid_mutate, the Gaussian mutants of one parent row, from the generator's own words: ep._mutate_py;
 * - at the end of the file, evopid_csv, the CSV cells of harness._write_csv: plant._csv_rows_py. It is the one
 *   export of the build that defines EVOPID_CSV, which leaves the other three (and evopid_has_avx) out.
 * evopid_has_avx beside them tells which build this host runs. Only evopid_mutate calls libm, and only the functions
 * math calls in its twin: the loop takes its one exp from the caller, and the cells are worked out on integers.
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
 * decay = exp(-dt / time_constant) in Python, so the loop calls no libm function. Each
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
#include <stddef.h>
#include <stdint.h>
#include <string.h>
/* min_pd and max_pd are the builtins that GCC's and Clang's _mm256_min_pd, _mm_min_pd and their max twins
 * wrap, one instruction each; <immintrin.h> would add 0.4 s to every compile of this file. Likewise
 * __builtin_isfinite is what <math.h>'s isfinite expands to, without the 13 ms that header adds to each build. */
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

#ifndef EVOPID_CSV
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
                int finite = __builtin_isfinite(velocity[v][l]) && __builtin_isfinite(velocity[v][l + 1]);
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

/* The trace's time column, out[k] = k dt for 0 <= k < n: plant._times_py in C. (double)k is exact for k < 2**53,
 * which _prepare's cap of n at plant._MAX_SAMPLES keeps, so each product is rounded once from the same operands as
 * Python's k * dt, and is bit-identical to it. */
void evopid_times(int64_t n, double dt, double *out)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = (double)k * dt;
}

/* libm's, declared here rather than by <math.h>, which would add 13 ms to every build */
double log(double);
double sqrt(double);
double sin(double);
double cos(double);

/* The 32-bit word at p, from little-endian bytes */
static inline uint32_t word(const uint8_t *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}

/* random.Random.random() of its next two words, at p: CPython's genrand_res53 */
static inline double uniform(const uint8_t *p)
{
    return ((word(p) >> 5) * 67108864.0 + (word(p + 4) >> 6)) * (1.0 / 9007199254740992.0);
}

/* cos in a function of its own: GCC at -O2 fuses the cos and sin of one argument into one sincos call, which math
 * never makes. glibc 2.36's sincos gave sin's and cos's bits on 2e7 arguments in [0, 2 pi), but that is a sample,
 * not a contract, and the load check could only see a libm where they differ on its own few dozen arguments. */
__attribute__((noinline)) static double cosine(double x)
{
    return cos(x);
}

/* The mutants of one parent row: ep._mutate_py in C, for a random.Random whose next words ep._mutate has taken by
 * one getrandbits call. words holds 12 x mutants of them, as that int's little-endian bytes, lowest word first: the
 * order random() reads them in, two a call. A draw is random.Random.gauss's: the spare normal if there is one (spares
 * 1), else the cos of a Box-Muller pair, whose sin becomes the spare. Each of the 6 x mutants draws, in flat order,
 * makes the twin's step, sum and halving of the parent gain, into out (mutants x 6). Returns the spare normal left,
 * which exists where one was passed in: 6 x mutants draws take 3 x mutants pairs either way. ep._mutate calls it only
 * where every step and sum is finite, so it never raises or halves a nonfinite step as the twin would.
 * The bits are the twin's because the arithmetic is its, in its order, and log, sqrt, cos and sin are the very
 * functions math calls: this library is loaded into the Python process whose math module it is checked against, so
 * both resolve them in the one libm that process has mapped. */
double evopid_mutate(int64_t mutants, const double *parent, int64_t scaled, double sigma, int64_t spares, double spare,
                     const uint8_t *words, double *out)
{
    for (int64_t k = 0; k < 6 * mutants; k++) {
        double z = spare;
        if (spares)
            spares = 0;
        else {
            double x2pi = uniform(words) * 6.283185307179586, g2rad = sqrt(-2.0 * log(1.0 - uniform(words + 8)));
            words += 16;
            z = cosine(x2pi) * g2rad;
            spare = sin(x2pi) * g2rad;
            spares = 1;
        }
        double v = parent[k % 6], step = scaled ? v * (0.0 + z * sigma) : 0.0 + z * sigma, x = v + step;
        /* ep._clamp_additive: a 0 stays 0, any other gain's step is halved until the sum is >= 0. A step of -inf,
         * which halving never leaves, ends the loop too: _mutate passes none, and one it passed by a slip would give
         * a mutant of -inf, not a hang. */
        if (x < 0.0) {
            while (v != 0.0 && v + step < 0.0 && step >= -DBL_MAX)
                step *= 0.5;
            x = v == 0.0 ? 0.0 : v + step;
        }
        out[k] = x;
    }
    return spare;
}

#endif

/* The CSV cells of harness._write_csv: plant._csv_rows_py in C, each the bytes of its repr.
 *
 * evopid_csv writes rows start to start + rows - 1 of width columns to out, each cell followed by ',' and each row's
 * last by '\n', and returns the bytes written: at most 24 a cell (plant._CSV_CELL), as "-1.2345678901234567e-05,".
 * columns holds, per column, the address of its first value and 1 for an array("q"), whose cells are plain integers,
 * or 0 for an array("d"). It writes a double only where it is exact: 0.0, -0.0, DBL_MAX (plant.DIVERGENCE_AE) and
 * 1e-20 <= |x| < 2**52; at any other it returns -1 - i, i that cell's index in the chunk, row by row. A compiler
 * without unsigned __int128 leaves it out, so plant._load_kernel refuses that build and the Python twin writes every
 * chunk. A double's digits are Ryu's (shortest), laid out as repr lays them out (put_double). A cell whose bits
 * equal those of the cell above it in the chunk copies that cell's text: bits, not values, so a -0.0 below a 0.0 is
 * written anew, as _csv_rows_py keys its constant columns.
 * On a 2-core x86-64 host (GCC 12, -O2) a double of 17 digits took about 43 ns, against 700 ns for repr, k * 0.02
 * about 46 ns against 360, one of 1 or 2 digits that Ryu's general path takes (0.5, 0.25) 70 ns, a repeated cell
 * 5 ns and an int64 below 10**5 12 ns against 105 (one call on 100,000 cells; minimums of nine).
 * It is compiled only where EVOPID_CSV is defined, in a build of its own (plant._c_csv), built on a process's first
 * CSV write: it doubles the compile time (0.10 to 0.21 s a build on that host), which a process that writes no CSV
 * should not pay. That build holds it alone: the simulation, the time column and the mutation come from _c_kernel's
 * build, so compiling them again would only add about 0.13 s of CPU to it.
 */
#ifdef EVOPID_CSV
#ifdef __SIZEOF_INT128__
#include <stdlib.h>

typedef unsigned __int128 u128;

/* Ryu's bit length of 5**i, i >= 0 */
static inline int pow5bits(int i)
{
    return (int)(((uint32_t)i * 1217359 >> 19) + 1);
}

/* 5**i shifted left to 125 bits, i = 0 to 38: Ryu's DOUBLE_POW5_SPLIT, exact here; and Ryu's DIGIT_TABLE, the
 * digit pairs "00" to "99". Both are filled when the library loads, not on first use, since ctypes calls run without
 * the GIL. */
static u128 pow5[39];
static char pairs[200];

__attribute__((constructor)) static void fill_tables(void)
{
    u128 p = 1;
    for (int i = 0; i < 39; i++, p *= 5)
        pow5[i] = p << (125 - pow5bits(i));
    for (int i = 0; i < 100; i++) {
        pairs[2 * i] = (char)('0' + i / 10);
        pairs[2 * i + 1] = (char)('0' + i % 10);
    }
}

/* floor(m pow5[i] / 2**j) for j >= 64, the 180-bit product taken as two 64 x 64-bit ones */
static inline uint64_t mul_shift(uint64_t m, int i, int j)
{
    return (uint64_t)((((u128)m * (uint64_t)pow5[i] >> 64) + (u128)m * (uint64_t)(pow5[i] >> 64)) >> (j - 64));
}

/* the digits of v < 10**17, counted from the top down, as Ryu's decimalLength17: most cells written have 17 */
static inline int length(uint64_t v)
{
    return v >= (uint64_t)1e16 ? 17 : v >= (uint64_t)1e15 ? 16 : v >= (uint64_t)1e14 ? 15 : v >= (uint64_t)1e13 ? 14
         : v >= (uint64_t)1e12 ? 13 : v >= (uint64_t)1e11 ? 12 : v >= (uint64_t)1e10 ? 11 : v >= (uint64_t)1e9 ? 10
         : v >= (uint64_t)1e8 ? 9 : v >= (uint64_t)1e7 ? 8 : v >= (uint64_t)1e6 ? 7 : v >= (uint64_t)1e5 ? 6
         : v >= (uint64_t)1e4 ? 5 : v >= (uint64_t)1e3 ? 4 : v >= (uint64_t)1e2 ? 3 : v >= (uint64_t)1e1 ? 2 : 1;
}

/* The shortest digits that read back as x, 1e-20 <= x < 2**52, and of those the nearest to x, as chars; returns
 * their count and sets *decpt so that x reads 0.DIGITS x 10**decpt: the digits of dtoa's mode 0, which repr writes.
 * This is d2d of Ryu (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018), cut down to this range. x is
 * mv 2**e2 with mv = 4 m, and the midpoints to its neighbours are (mv - 1 - mm_shift) 2**e2 below and (mv + 2) 2**e2
 * above. Here e2 lies in [-121, -3], so only Ryu's e2 < 0 branch is needed: vr, vm and vp are those three times
 * 5**i / 2**q, floored, i = -e2 - q, where q = floor(log10 5**-e2) - 1 (1 to 83) makes 10**(q + e2) the place value
 * of vr's last digit. i is at most 38, so 5**i shifted left to 125 bits (pow5) is an exact u128, and each floor is
 * exact. Digits are then removed while vm and vp still differ above the last one, and vr is rounded. The removed
 * digits can all be 0 only where mv has q trailing zero bits (vr_zeros), and a bound is exact only where q = 1, in
 * [2**50, 2**52); Ryu's general path tracks both, for exact halves, which round to even, and for the bounds that
 * round-half-even reading accepts; its common path, where neither holds, is the one nearly every x takes. An exact
 * bound here ends in the digit 5 (x -+ 0.25 or 0.125, in units of 0.01 or 0.001), so vm_zeros never outlives the
 * first removed digit and decides nothing, and vp's decrement never changes vp / 10; both stay as Ryu has them.
 * The common path removes four digits, then two, at a time while vp / 10**k > vm / 10**k, which is k passes of the
 * one-digit loop: floor(a / 10**k) is floor(floor(a / 10**j) / 10**(k - j)) and floor is monotone, so each of the k
 * tests that loop would make, vp / 10**j > vm / 10**j for j < k, holds too. Only the last digit removed rounds
 * there, so last is the highest of the k, vr % 10**k / 10**(k - 1). Once the fours stop, at most one pair and then
 * one digit are left to remove, so each of those is an if. vp - vm is at most 4 5**-e2 / 10**q <= 400, so a first
 * four removed, vr's distance to a multiple of 10**4 inside (vm, vp], read 0000 to 0400 or 9600 to 9999, and any
 * later four 0000 or 9999: their second digit rounds as their highest does, and a last taken from it writes the same
 * cells.
 * The output has no trailing 0: were output 10 t, the loop would have gone on, since vm < output <= vp would give
 * vm / 10 < t <= vp / 10. So it is never a power of ten but 1, and at length's thresholds >= and > write the same
 * cells. Its low eight digits are split off on 64 bits only where it reaches 2**32; a split from any lower threshold
 * would write the same digits, on 64 bits. */
static int shortest(double x, char *digits, int *decpt)
{
    uint64_t bits;
    memcpy(&bits, &x, 8);
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52, mv = 4 * m, output;
    int e2 = (int)(bits >> 52) - 1077, even = !(m & 1), mm_shift = m != 1ull << 52; /* 0 at a power of two */
    int q = (int)((uint32_t)-e2 * 732923 >> 20) - 1, i = -e2 - q, j = q + 125 - pow5bits(i), removed = 0, last = 0;
    uint64_t vr = mul_shift(mv, i, j), vp = mul_shift(mv + 2, i, j), vm = mul_shift(mv - 1 - mm_shift, i, j);
    int vr_zeros = q < 64 && !(mv & ((1ull << q) - 1)), vm_zeros = q <= 1 && even && mm_shift;
    vp -= q <= 1 && !even; /* the exact upper bound, excluded */
    if (vr_zeros || vm_zeros) {
        for (; vp / 10 > vm / 10; removed++, vr /= 10, vp /= 10, vm /= 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
        }
        for (; vm_zeros && vm % 10 == 0; removed++, vr /= 10, vp /= 10, vm /= 10) {
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* exactly half way: round to even */
        output = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    } else {
        for (; vp / 10000 > vm / 10000; removed += 4, vr /= 10000, vp /= 10000, vm /= 10000)
            last = (int)(vr % 10000 / 1000);
        if (vp / 100 > vm / 100) {
            last = (int)(vr % 100 / 10);
            removed += 2, vr /= 100, vp /= 100, vm /= 100;
        }
        if (vp / 10 > vm / 10) {
            last = (int)(vr % 10);
            removed++, vr /= 10, vp /= 10, vm /= 10;
        }
        output = vr + (vr == vm || last >= 5);
    }
    int n = length(output);
    *decpt = q + e2 + removed + n;
    char *d = digits + n;
    if (output >> 32) { /* the low eight digits, then the rest, below 10**9, on 32-bit arithmetic */
        uint64_t high = output / 100000000;
        uint32_t low = (uint32_t)(output - 100000000 * high);
        for (int k = 0; k < 4; k++, low /= 100)
            memcpy(d -= 2, pairs + 2 * (low % 100), 2);
        output = high;
    }
    uint32_t rest = (uint32_t)output;
    for (; rest >= 100; rest /= 100)
        memcpy(d -= 2, pairs + 2 * (rest % 100), 2);
    if (rest >= 10)
        memcpy(d - 2, pairs + 2 * rest, 2);
    else
        d[-1] = (char)('0' + rest);
    return n;
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

/* evopid_csv's rows; size[c] holds the bytes of column c's cell in the row above, separator included, 0 above the
 * chunk's first row, where above stays at out */
static int64_t csv_rows(int64_t start, int64_t rows, int64_t width, const int64_t *columns, char *out, uint8_t *size)
{
    char *p = out, *above = out; /* the text of the cell above */
    for (int64_t r = start; r < start + rows; r++) {
        for (int64_t c = 0; c < width; c++) {
            const char *cell = (const char *)(intptr_t)columns[2 * c] + 8 * r; /* 8 bytes in either kind */
            char *text = p, copy[24];
            if (r > start && !memcmp(cell, cell - 8, 8)) { /* the bits of the cell above, so its text */
                /* out holds 24 bytes a cell, so 24 from any cell's start lie inside it; the copy may overlap */
                memcpy(copy, above, 24);
                memcpy(p, copy, 24);
                p += size[c];
            } else {
                if (columns[2 * c + 1])
                    p = put_int(p, *(const int64_t *)cell);
                else if (!(p = put_double(p, *(const double *)cell)))
                    return -1 - ((r - start) * width + c);
                *p++ = c + 1 < width ? ',' : '\n';
            }
            above += size[c];
            size[c] = (uint8_t)(p - text);
        }
    }
    return p - out;
}

int64_t evopid_csv(int64_t start, int64_t rows, int64_t width, const int64_t *columns, char *out)
{
    uint8_t *size = calloc((size_t)width, 1); /* where that fails, -1: the caller writes the chunk */
    int64_t written = size ? csv_rows(start, rows, width, columns, out, size) : -1;
    free(size);
    return written;
}
#endif
#endif
