/* One SA[Flip] or placebo run in C, step for step the Python reference loop
 * in saflip/annealing.py (`_run_loop`) under its acceptance `rule`.
 *
 * The random stream is CPython's random.Random: MT19937 (`genrand_uint32`),
 * `random()` from two 32-bit words, `randrange(n)` as rejection sampling over
 * `getrandbits(n.bit_length())`, and `shuffle` from the last index down.  The
 * caller passes the 625 words of `Random(seed).getstate()`.  Floating point
 * follows the Python expressions operation by operation and calls the same
 * libm `pow` and `exp`; build with -ffp-contract=off and without -ffast-math
 * so the compiler keeps that order.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int index;
} Rng;

static uint32_t genrand_uint32(Rng *r)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = r->mt;
    uint32_t y;
    if (r->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->index = 0;
    }
    y = mt[r->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double random_double(Rng *r)
{
    uint32_t a = genrand_uint32(r) >> 5, b = genrand_uint32(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random._randbelow_with_getrandbits: a draw in [0, n) for 0 < n < 2**31. */
static int randbelow(Rng *r, int n)
{
    int k = 0;
    uint32_t v;
    while ((n >> k) != 0)
        k++;
    do
        v = genrand_uint32(r) >> (32 - k);
    while (v >= (uint32_t)n);
    return (int)v;
}

/* Occurrence lists as in EvalState: occ[occ_start[2v + s] .. occ_start[2v + s + 1])
 * holds, in clause order, the clauses where variable v occurs positively
 * (s = 0) or negatively (s = 1), once per occurrence. */
typedef struct {
    int n, m;
    const int *occ_start;
    const int *occ;
} Formula;

typedef struct {
    unsigned char *values; /* values[v - 1] of variable v */
    int *sat_counts;
    int unsat;
} State;

static void copy_state(const Formula *f, State *dst, const State *src)
{
    memcpy(dst->values, src->values, (size_t)f->n);
    memcpy(dst->sat_counts, src->sat_counts, (size_t)f->m * sizeof(int));
    dst->unsat = src->unsat;
}

/* The clauses made true (*t) and false (*fl) by v's current value. */
static void occurrences(const Formula *f, const State *s, int v,
                        const int **t, const int **t_end,
                        const int **fl, const int **fl_end)
{
    int pos = 2 * v, neg = 2 * v + 1;
    if (!s->values[v - 1]) {
        pos = 2 * v + 1;
        neg = 2 * v;
    }
    *t = f->occ + f->occ_start[pos];
    *t_end = f->occ + f->occ_start[pos + 1];
    *fl = f->occ + f->occ_start[neg];
    *fl_end = f->occ + f->occ_start[neg + 1];
}

static int flip_gain(const Formula *f, const State *s, int v)
{
    const int *t, *t_end, *fl, *fl_end;
    int gain = 0;
    occurrences(f, s, v, &t, &t_end, &fl, &fl_end);
    for (; fl < fl_end; fl++)
        gain += s->sat_counts[*fl] == 0;
    for (; t < t_end; t++)
        gain -= s->sat_counts[*t] == 1;
    return gain;
}

static void apply_flip(const Formula *f, State *s, int v)
{
    const int *t, *t_end, *fl, *fl_end;
    occurrences(f, s, v, &t, &t_end, &fl, &fl_end);
    for (; t < t_end; t++)
        if (--s->sat_counts[*t] == 0)
            s->unsat++;
    for (; fl < fl_end; fl++)
        if (++s->sat_counts[*fl] == 1)
            s->unsat--;
    s->values[v - 1] ^= 1;
}

/* saflip.flip.flip: one shuffled order, passes until one improves nothing. */
static void flip(const Formula *f, State *s, Rng *r, int *perm)
{
    int i, improvement = 1;
    for (i = 0; i < f->n; i++)
        perm[i] = i + 1;
    for (i = f->n - 1; i > 0; i--) {
        int j = randbelow(r, i + 1), tmp = perm[i];
        perm[i] = perm[j];
        perm[j] = tmp;
    }
    while (improvement > 0) {
        improvement = 0;
        for (i = 0; i < f->n; i++) {
            int gain = flip_gain(f, s, perm[i]);
            if (gain >= 0) {
                apply_flip(f, s, perm[i]);
                improvement += gain;
            }
        }
    }
}

enum { METROPOLIS = 0, COIN = 1 }; /* saflip.annealing's acceptance rules */
enum { RUN_OK = 0, RUN_NONPOSITIVE_TEMPERATURE = 1, RUN_NO_MEMORY = 2 };

/* One run of `_run_loop` under `rule`.  Clause c holds lits[ends[c - 1] .. ends[c]).
 * On RUN_OK, best_values gets the best assignment and out gets the best and
 * the minimum evaluated unsat counts, the Flip calls and the completed
 * temperature levels. */
int saflip_run(int n, int m, const int *lits, const int *ends,
               const uint32_t *rng_state, int rule, double t0, double alpha,
               int64_t m_steps, int64_t mni, unsigned char *best_values,
               int64_t *out)
{
    Rng rng;
    Formula f;
    State bufs[2], *state = &bufs[0], *neighbor = &bufs[1];
    int *occ_start, *occ, *fill, *perm;
    int64_t flip_calls = 1, k = 0, step;
    int best_unsat = 0, min_unsat = 0, c, i, status = RUN_OK;
    int num_lits = m ? ends[m - 1] : 0;

    memcpy(rng.mt, rng_state, sizeof rng.mt);
    rng.index = (int)rng_state[MT_N];

    occ_start = calloc((size_t)2 * n + 3, sizeof(int));
    fill = calloc((size_t)2 * n + 2, sizeof(int));
    occ = malloc(((size_t)num_lits + 1) * sizeof(int));
    perm = malloc((size_t)n * sizeof(int));
    bufs[0].values = malloc((size_t)n);
    bufs[1].values = malloc((size_t)n);
    bufs[0].sat_counts = calloc((size_t)m, sizeof(int));
    bufs[1].sat_counts = malloc((size_t)m * sizeof(int));
    if (!occ_start || !fill || !occ || !perm || !bufs[0].values || !bufs[1].values
        || !bufs[0].sat_counts || !bufs[1].sat_counts) {
        status = RUN_NO_MEMORY;
        goto done;
    }

    /* Occurrence lists: count, prefix-sum, then fill in clause order. */
    for (i = 0; i < num_lits; i++)
        occ_start[2 * abs(lits[i]) + (lits[i] < 0) + 1]++;
    for (i = 1; i < 2 * n + 3; i++)
        occ_start[i] += occ_start[i - 1];
    for (c = 0, i = 0; c < m; c++)
        for (; i < ends[c]; i++) {
            int slot = 2 * abs(lits[i]) + (lits[i] < 0);
            occ[occ_start[slot] + fill[slot]++] = c;
        }
    f.n = n;
    f.m = m;
    f.occ_start = occ_start;
    f.occ = occ;

    /* random_assignment, then EvalState's full count. */
    for (i = 0; i < n; i++)
        state->values[i] = (unsigned char)randbelow(&rng, 2);
    state->unsat = 0;
    for (c = 0, i = 0; c < m; c++) {
        for (; i < ends[c]; i++) {
            int v = abs(lits[i]);
            if (state->values[v - 1] == (lits[i] > 0))
                state->sat_counts[c]++;
        }
        if (state->sat_counts[c] == 0)
            state->unsat++;
    }

    flip(&f, state, &rng, perm);
    best_unsat = min_unsat = state->unsat;
    memcpy(best_values, state->values, (size_t)n);
    if (state->unsat == 0)
        goto done;

    for (k = 0; k < mni; k++) {
        double t = t0 * pow(alpha, (double)k);
        for (step = 0; step < m_steps; step++) {
            int accept;
            copy_state(&f, neighbor, state);
            apply_flip(&f, neighbor, randbelow(&rng, n) + 1);
            flip(&f, neighbor, &rng, perm);
            flip_calls++;
            if (neighbor->unsat < min_unsat)
                min_unsat = neighbor->unsat;
            if (neighbor->unsat == 0) {
                best_unsat = 0;
                memcpy(best_values, neighbor->values, (size_t)n);
                goto done;
            }
            /* Best tracking looks at the incumbent, before acceptance. */
            if (state->unsat < best_unsat) {
                best_unsat = state->unsat;
                memcpy(best_values, state->values, (size_t)n);
            }
            if (rule == COIN) {
                double p = random_double(&rng);
                accept = random_double(&rng) < p;
            } else {
                double u = random_double(&rng);
                double delta_y = (double)neighbor->unsat / m - (double)state->unsat / m;
                if (!(t > 0)) {
                    status = RUN_NONPOSITIVE_TEMPERATURE;
                    goto done;
                }
                accept = u < (delta_y <= 0 ? 1.0 : exp(-delta_y / t));
            }
            if (accept) {
                State *tmp = state;
                state = neighbor;
                neighbor = tmp;
            }
        }
    }

done:
    out[0] = best_unsat;
    out[1] = min_unsat;
    out[2] = flip_calls;
    out[3] = k;
    free(occ_start);
    free(fill);
    free(occ);
    free(perm);
    free(bufs[0].values);
    free(bufs[1].values);
    free(bufs[0].sat_counts);
    free(bufs[1].sat_counts);
    return status;
}
