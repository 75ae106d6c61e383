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

/* Occurrence lists as in EvalState, one per literal slot: slot 2v holds
 * literal v and slot 2v + 1 literal -v, and occ[occ_start[s] .. occ_start[s + 1])
 * holds, in clause order, the clauses where slot s occurs, once per
 * occurrence.  Clause c holds lits[starts[c] .. starts[c + 1]). */
typedef struct {
    int n, m;
    const int *occ_start;
    const int *occ;
    const int *lits;
    const int *starts;
} Formula;

/* score[v - 1] is EvalState.flip_gain(v), kept up to date by apply_flip:
 * over v's occurrences, +1 for a false literal in a clause with no true one,
 * -1 for a true literal that is its clause's only one.  tx[c] is the XOR of
 * the variables of clause c's true literals, one term per occurrence, so
 * when sat_counts[c] == 1 it names the one variable that would break c.
 * values (n), score (n), sat_counts (m) and tx (m) are, in that order, one
 * block of 2(n + m) ints that starts at values. */
typedef struct {
    int *values; /* values[v - 1] of variable v, 0 or 1 */
    int *score;
    int *sat_counts;
    int *tx;
    int unsat;
} State;

static void copy_state(const Formula *f, State *dst, const State *src)
{
    memcpy(dst->values, src->values, 2 * ((size_t)f->n + f->m) * sizeof(int));
    dst->unsat = src->unsat;
}

/* Adds d to the score of every variable occurring in clause c, once per occurrence. */
static void add_to_clause(const Formula *f, State *s, int c, int d)
{
    const int *l = f->lits + f->starts[c], *end = f->lits + f->starts[c + 1];
    for (; l < end; l++)
        s->score[abs(*l) - 1] += d;
}

/* EvalState.apply_flip, one occurrence at a time, with the scores and tx
 * updated for each occurrence's change of sat_counts[c] to k.  Slot t holds
 * v's true literal and slot t ^ 1 its false one. */
static void apply_flip(const Formula *f, State *s, int v)
{
    int t = 2 * v + !s->values[v - 1], i;
    for (i = f->occ_start[t]; i < f->occ_start[t + 1]; i++) {
        int c = f->occ[i], k = --s->sat_counts[c];
        s->tx[c] ^= v;
        if (k == 0) { /* c breaks: each of its literals, now false, would mend it */
            s->unsat++;
            add_to_clause(f, s, c, 1);
            s->score[v - 1]++;
        } else if (k == 1) { /* the one true literal left now breaks c */
            s->score[s->tx[c] - 1]--;
        }
    }
    t ^= 1;
    for (i = f->occ_start[t]; i < f->occ_start[t + 1]; i++) {
        int c = f->occ[i], k = ++s->sat_counts[c];
        if (k == 1) { /* c is mended: no literal mends it, v's breaks it */
            s->unsat--;
            add_to_clause(f, s, c, -1);
            s->score[v - 1]--;
        } else if (k == 2) { /* the other true literal no longer breaks c alone */
            s->score[s->tx[c] - 1]++;
        }
        s->tx[c] ^= v;
    }
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
            int gain = s->score[perm[i] - 1];
            if (gain >= 0) {
                apply_flip(f, s, perm[i]);
                improvement += gain;
            }
        }
    }
}

enum { METROPOLIS = 0, COIN = 1 }; /* saflip.annealing's acceptance rules */
enum { RUN_OK = 0, RUN_NONPOSITIVE_TEMPERATURE = 1, RUN_NO_MEMORY = 2 };

/* saflip.annealing.accept with the same draws: 1 to accept, 0 to reject,
 * -1 when METROPOLIS meets t <= 0 (after its draw, as Python raises). */
static int accept(int rule, Rng *r, double delta_y, double t)
{
    double u;
    if (rule == COIN) {
        double p = random_double(r);
        return random_double(r) < p;
    }
    u = random_double(r);
    if (!(t > 0))
        return -1;
    return u < (delta_y <= 0 ? 1.0 : exp(-delta_y / t));
}

/* One run of `_run_loop` under `rule` on the clauses in lits and starts (see
 * Formula).  On RUN_OK, best_values gets the best assignment and out gets
 * the best and the minimum evaluated unsat counts, the Flip calls and the
 * completed temperature levels. */
int saflip_run(int n, int m, const int *lits, const int *starts,
               const uint32_t *rng_state, int rule, double t0, double alpha,
               int64_t m_steps, int64_t mni, int *best_values, int64_t *out)
{
    Rng rng;
    Formula f;
    State bufs[2], *state = &bufs[0], *neighbor = &bufs[1];
    int64_t flip_calls = 1, k = 0, step;
    int best_unsat = 0, min_unsat = 0, c, i, status = RUN_OK;
    size_t slots = 2 * (size_t)n + 4, block = 2 * ((size_t)n + m);
    /* occ_start (slots), occ (starts[m]), perm (n), then two zeroed State blocks. */
    int *occ_start = calloc(slots + starts[m] + n + 2 * block, sizeof(int)), *occ, *perm;

    memcpy(rng.mt, rng_state, sizeof rng.mt);
    rng.index = (int)rng_state[MT_N];
    if (!occ_start) {
        status = RUN_NO_MEMORY;
        goto done;
    }
    occ = occ_start + slots;
    perm = occ + starts[m];
    for (i = 0; i < 2; i++) {
        bufs[i].values = perm + n + i * block;
        bufs[i].score = bufs[i].values + n;
        bufs[i].sat_counts = bufs[i].score + n;
        bufs[i].tx = bufs[i].sat_counts + m;
        bufs[i].unsat = 0;
    }

    /* Occurrence lists: count slot s at s + 2, prefix-sum, then place each
     * occurrence at occ_start[s + 1]++.  That keeps clause order and leaves
     * occ_start[s] at the start of slot s. */
    for (i = 0; i < starts[m]; i++)
        occ_start[2 * abs(lits[i]) + (lits[i] < 0) + 2]++;
    for (i = 1; i < (int)slots; i++)
        occ_start[i] += occ_start[i - 1];
    for (c = 0; c < m; c++)
        for (i = starts[c]; i < starts[c + 1]; i++)
            occ[occ_start[2 * abs(lits[i]) + (lits[i] < 0) + 1]++] = c;
    f = (Formula){n, m, occ_start, occ, lits, starts};

    /* random_assignment, then EvalState's count of each clause, and each
     * clause's share of the scores as apply_flip gives it at that count. */
    for (i = 0; i < n; i++)
        state->values[i] = randbelow(&rng, 2);
    for (c = 0; c < m; c++) {
        for (i = starts[c]; i < starts[c + 1]; i++) {
            int v = abs(lits[i]);
            if (state->values[v - 1] == (lits[i] > 0)) {
                state->sat_counts[c]++;
                state->tx[c] ^= v;
            }
        }
        if (state->sat_counts[c] == 0) {
            state->unsat++;
            add_to_clause(&f, state, c, 1);
        } else if (state->sat_counts[c] == 1) {
            state->score[state->tx[c] - 1]--;
        }
    }

    flip(&f, state, &rng, perm);
    best_unsat = min_unsat = state->unsat;
    memcpy(best_values, state->values, (size_t)n * sizeof(int));
    if (state->unsat == 0)
        goto done;

    for (k = 0; k < mni; k++) {
        double t = t0 * pow(alpha, (double)k);
        for (step = 0; step < m_steps; step++) {
            int a;
            copy_state(&f, neighbor, state);
            apply_flip(&f, neighbor, randbelow(&rng, n) + 1);
            flip(&f, neighbor, &rng, perm);
            flip_calls++;
            if (neighbor->unsat < min_unsat)
                min_unsat = neighbor->unsat;
            if (neighbor->unsat == 0) {
                best_unsat = 0;
                memcpy(best_values, neighbor->values, (size_t)n * sizeof(int));
                goto done;
            }
            /* Best tracking looks at the incumbent, before acceptance. */
            if (state->unsat < best_unsat) {
                best_unsat = state->unsat;
                memcpy(best_values, state->values, (size_t)n * sizeof(int));
            }
            a = accept(rule, &rng, (double)neighbor->unsat / m - (double)state->unsat / m, t);
            if (a < 0) {
                status = RUN_NONPOSITIVE_TEMPERATURE;
                goto done;
            }
            if (a) {
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
    return status;
}
