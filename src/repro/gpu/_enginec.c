/* Per-cycle GPU step kernel for the struct-of-arrays engine.
 *
 * Compiled on demand by repro.gpu._cbuild (plain cc, no Python headers)
 * and driven through ctypes.  Operates in place on the NumPy buffers of
 * repro.gpu.engine.VectorizedGPUEngine; one call advances all SMs one
 * nominal clock cycle.
 *
 * The contract is bit-identical equivalence with the per-object Python
 * oracle (StreamingMultiprocessor in tests/oracles/gpu_reference.py).
 * This file is a direct sequential transliteration of its step() — same
 * operation order, same IEEE-754 double arithmetic:
 *
 *   - compile with -ffp-contract=off (no FMA contraction) and without
 *     -ffast-math, so double expressions evaluate exactly as CPython's;
 *   - rint() under the default round-to-nearest-even mode matches
 *     Python's round() for the DIWS budget;
 *   - (long long) casts of non-negative doubles truncate like int();
 *   - the memory-queue recurrence and energy-wheel deposits run in the
 *     reference's exact sequence (per SM, per issue slot, fakes last).
 *
 * Scoreboards are the engine's (sms, warps, 17) ready-at table with
 * sentinels RA_NEVER (never written -> always ready) and RA_PENDING
 * (load in flight -> never ready); readiness is max(cols) <= cycle.
 * That max over the head instruction's dest/src1/src2 columns is cached
 * per warp in head_ready (RA_PENDING for a finished warp) and refreshed
 * only when the warp issues or one of its loads completes; a fresh
 * struct (heads_valid == 0, i.e. a kernel launch or a rebuilt struct)
 * recomputes every entry on its first step.
 *
 * Pending loads live in per-SM binary heaps (interleaved across SMs) of
 * packed (completion << 24 | warp << 8 | reg) keys — packed-integer order
 * equals the reference's (completion, warp, reg) tuple order, so pop
 * order is identical, and stale entries survive kernel relaunch with
 * reference semantics (release-if-pending, unconditional outstanding
 * decrement).
 */

#include <math.h>
#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

#define RA_NEVER (-(1LL << 62))
#define RA_PENDING (1LL << 62)

#define HEAP_PACK(comp, w, reg) (((comp) << 24) | ((i64)(w) << 8) | (i64)(reg))
#define HEAP_COMP(e) ((e) >> 24)
#define HEAP_WARP(e) (((e) >> 8) & 0xFFFF)
#define HEAP_REG(e) ((e) & 0xFF)

typedef struct {
    /* dimensions and scalar constants */
    i64 num_sms;
    i64 num_warps;
    i64 body;
    i64 heap_cap;
    i64 max_pc;
    i64 dram_cycles;
    i64 l2_cycles;
    double clock_hz;
    double idle_energy;
    double fake_energy;
    double slot_width;
    /* actuation state, (S,) / (S,3) */
    double *issue_width;
    double *fake_rate;
    double *freq_scale;
    u8 *gated;
    u8 *prefer; /* (S,3) GATES preferred units; all set = plain GTO */
    i64 *waking; /* usable-at cycle; RA_NEVER when cleared */
    i64 *unit_idle;
    double *leakage;
    /* DIWS / FII / DFS machinery, (S,) */
    i64 *window_start;
    i64 *budget;
    double *fake_acc;
    double *clock_acc;
    /* energy wheel */
    double *wheel; /* (S,8) */
    i64 *wheel_pos;
    /* statistics, (S,) */
    i64 *st_cycles;
    i64 *st_active;
    i64 *st_inst;
    i64 *st_fake;
    i64 *st_stall;
    /* per-warp state, (S,W) / (S,W,17) */
    i64 *pc;
    i64 *length;
    i64 *outstanding;
    u8 *warp_done;
    i64 *ready_at;
    i64 *head_ready; /* (S,W) cached head readiness */
    i64 heads_valid; /* 0 on a fresh struct: rebuild head_ready */
    i64 *last_warp; /* (S,) */
    /* pending-load heaps of packed keys, (cap,S): SM s's entry i at
     * heap[i * S + s], so every SM's heap top shares one cache line
     * and page instead of one page per SM */
    i64 *heap;
    i64 *heap_len;
    /* shared memory system: [0] next service slot; counters
     * [served, misses]; totals [instructions, fakes] */
    double *mem_slot;
    i64 *mem_counters;
    i64 *totals;
    /* current generation's streams, (W,body) */
    i64 *s_unit;
    i64 *s_latency;
    i64 *s_dest;
    u8 *s_is_load;
    i64 *s_span;
    double *s_share;
    i64 *s_dest_col;
    i64 *s_src1_col;
    i64 *s_src2_col;
    u8 *miss_table; /* (W,max_pc) */
    /* output */
    double *powers; /* (S,) */
    i64 *ndone;     /* [0]: kernel-done SMs at end of the last step */
} EngineState;

/* Cycle from which warp w's head instruction is ready: the max of its
 * dest/src1/src2 ready-at columns, or RA_PENDING once the warp is done
 * (peek() is None). */
static inline void refresh_head(EngineState *st, i64 s, i64 w) {
    i64 sw = s * st->num_warps + w;
    i64 p = st->pc[sw];
    if (p >= st->length[sw]) {
        st->head_ready[sw] = RA_PENDING;
        return;
    }
    i64 e = p >= st->body ? p - st->body : p;
    i64 pos = w * st->body + e;
    const i64 *ra = st->ready_at + sw * 17;
    i64 r = ra[st->s_dest_col[pos]];
    i64 r1 = ra[st->s_src1_col[pos]];
    i64 r2 = ra[st->s_src2_col[pos]];
    if (r1 > r)
        r = r1;
    st->head_ready[sw] = r2 > r ? r2 : r;
}

static inline int warp_ready(const EngineState *st, i64 s, i64 w, i64 cycle) {
    return st->head_ready[s * st->num_warps + w] <= cycle;
}

static inline int unit_avail(const EngineState *st, i64 s, i64 u, i64 cycle) {
    if (st->gated[s * 3 + u])
        return 0;
    return st->waking[s * 3 + u] <= cycle;
}

/* Entry i of one SM's heap; SMs' heaps are interleaved (see EngineState). */
#define H(i) heap[(i) * stride]

static void heap_push(i64 *heap, i64 stride, i64 *len, i64 entry) {
    i64 i = (*len)++;
    H(i) = entry;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (H(parent) <= H(i))
            break;
        i64 t = H(parent);
        H(parent) = H(i);
        H(i) = t;
        i = parent;
    }
}

static i64 heap_pop(i64 *heap, i64 stride, i64 *len) {
    i64 top = H(0);
    i64 n = --(*len);
    H(0) = H(n);
    i64 i = 0;
    for (;;) {
        i64 left = 2 * i + 1;
        if (left >= n)
            break;
        i64 small = left;
        i64 right = left + 1;
        if (right < n && H(right) < H(left))
            small = right;
        if (H(i) <= H(small))
            break;
        i64 t = H(i);
        H(i) = H(small);
        H(small) = t;
        i = small;
    }
    return top;
}

/* GTO select: greedy on the last-issued warp while it stays ready,
 * else oldest ready (min (pc, warp_id)) — remembering the oldest pick
 * even when the subsequent issue is blocked, like the reference. */
static i64 gto_select(EngineState *st, i64 s, i64 cycle) {
    i64 W = st->num_warps;
    i64 last = st->last_warp[s];
    if (last >= 0 && warp_ready(st, s, last, cycle))
        return last;
    const i64 *hr = st->head_ready + s * W;
    const i64 *pc = st->pc + s * W;
    i64 best = -1, best_pc = 0;
    for (i64 w = 0; w < W; w++) {
        if (hr[w] > cycle)
            continue;
        i64 p = pc[w];
        if (best < 0 || p < best_pc) {
            best = w;
            best_pc = p;
        }
    }
    if (best >= 0)
        st->last_warp[s] = best;
    return best;
}

/* GATES select: GTO over a narrowed pool — the ready warps whose head
 * unit is preferred, or every ready warp when there are none.  Greedy on
 * the last-issued warp while it is in the pool, else the pool's oldest
 * (remembered even when the issue is then blocked, like GTO). */
static i64 gates_select(EngineState *st, i64 s, i64 cycle, const u8 *pref) {
    i64 W = st->num_warps, body = st->body;
    const i64 *hr = st->head_ready + s * W;
    const i64 *pc = st->pc + s * W;
    i64 any = -1, any_pc = 0, best = -1, best_pc = 0;
    int last_pref = 0;
    i64 last = st->last_warp[s];
    for (i64 w = 0; w < W; w++) {
        if (hr[w] > cycle)
            continue;
        i64 p = pc[w];
        if (any < 0 || p < any_pc) {
            any = w;
            any_pc = p;
        }
        i64 e = p >= body ? p - body : p;
        if (!pref[st->s_unit[w * body + e]])
            continue;
        if (w == last)
            last_pref = 1;
        if (best < 0 || p < best_pc) {
            best = w;
            best_pc = p;
        }
    }
    if (any < 0)
        return -1;
    int narrowed = best >= 0;
    if (!narrowed)
        best = any; /* no preferred warp ready: the pool is all ready */
    if (last >= 0 && hr[last] <= cycle && (last_pref || !narrowed))
        return last;
    st->last_warp[s] = best;
    return best;
}

/* One nominal clock for every SM.  Returns the number of kernel-done
 * SMs at end of cycle (for the GPU's launch barrier, also stored in
 * *ndone), or -1 if a pending-load heap overflowed. */
i64 engine_step(EngineState *st, i64 cycle) {
    const i64 S = st->num_sms, W = st->num_warps, body = st->body;

    if (!st->heads_valid) {
        for (i64 s = 0; s < S; s++)
            for (i64 w = 0; w < W; w++)
                refresh_head(st, s, w);
        st->heads_valid = 1;
    }

    for (i64 s = 0; s < S; s++) {
        st->st_cycles[s]++;

        /* DFS clock masking: skip execution on masked cycles. */
        st->clock_acc[s] += st->freq_scale[s];
        if (st->clock_acc[s] < 1.0) {
            double freq = st->clock_hz * 0.0;
            double energy = st->idle_energy + 0.0;
            st->powers[s] = st->leakage[s] + energy * freq;
            continue;
        }
        st->clock_acc[s] -= 1.0;
        st->st_active[s]++;

        /* Complete arrived loads (stale relaunch entries included). */
        i64 *heap = st->heap + s;
        const i64 stride = S;
        i64 *hlen = st->heap_len + s;
        while (*hlen > 0 && HEAP_COMP(heap[0]) <= cycle) {
            i64 entry = heap_pop(heap, stride, hlen);
            i64 w = HEAP_WARP(entry), reg = HEAP_REG(entry);
            i64 *ra = st->ready_at + (s * W + w) * 17;
            if (ra[reg] == RA_PENDING) {
                ra[reg] = cycle;
                refresh_head(st, s, w);
            }
            st->outstanding[s * W + w]--;
        }

        /* Drained kernel: idle at base power until the launch barrier. */
        int done = 1;
        for (i64 w = 0; w < W; w++) {
            if (!st->warp_done[s * W + w] || st->outstanding[s * W + w] != 0) {
                done = 0;
                break;
            }
        }
        if (done) {
            double freq = st->clock_hz * st->freq_scale[s];
            double energy = st->idle_energy + 0.0;
            st->powers[s] = st->leakage[s] + energy * freq;
            continue;
        }

        /* DIWS window bookkeeping. */
        if (cycle - st->window_start[s] >= 10) {
            st->window_start[s] = cycle;
            st->budget[s] = (i64)rint(st->issue_width[s] * 10.0);
        }

        i64 ports[3] = {2, 1, 1};
        int used[3] = {0, 0, 0};
        int issued = 0;
        i64 iss_span[2];
        double iss_share[2];

        const u8 *pref = st->prefer + s * 3;
        const int gates = !(pref[0] && pref[1] && pref[2]);
        while (issued < 2 && st->budget[s] > 0) {
            i64 w = gates ? gates_select(st, s, cycle, pref)
                          : gto_select(st, s, cycle);
            if (w < 0)
                break;
            i64 p = st->pc[s * W + w];
            i64 e = p >= body ? p - body : p;
            i64 unit = st->s_unit[w * body + e];
            if (ports[unit] <= 0 || !unit_avail(st, s, unit, cycle)) {
                /* Structural hazard: oldest ready warp (excluding the
                 * blocked one) whose head unit has a free, live port. */
                i64 alt = -1, alt_pc = 0;
                for (i64 v = 0; v < W; v++) {
                    if (v == w || !warp_ready(st, s, v, cycle))
                        continue;
                    i64 pv = st->pc[s * W + v];
                    i64 ev = pv >= body ? pv - body : pv;
                    i64 uv = st->s_unit[v * body + ev];
                    if (ports[uv] <= 0 || !unit_avail(st, s, uv, cycle))
                        continue;
                    if (alt < 0 || pv < alt_pc) {
                        alt = v;
                        alt_pc = pv;
                    }
                }
                if (alt < 0)
                    break;
                w = alt;
                p = st->pc[s * W + w];
                e = p >= body ? p - body : p;
                unit = st->s_unit[w * body + e];
            }
            ports[unit]--;
            used[unit] = 1;
            st->pc[s * W + w] = p + 1;
            if (p + 1 >= st->length[s * W + w])
                st->warp_done[s * W + w] = 1;
            st->last_warp[s] = w;
            st->budget[s]--;
            st->st_inst[s]++;
            st->totals[0]++;

            i64 spos = w * body + e;
            i64 dest = st->s_dest[spos];
            if (dest >= 0) {
                if (st->s_is_load[spos]) {
                    /* Shared-memory request, inline like the reference:
                     * bandwidth slot recurrence, then site-keyed
                     * hit/miss from the precomputed table. */
                    double dc = (double)cycle;
                    double start =
                        dc > st->mem_slot[0] ? dc : st->mem_slot[0];
                    st->mem_slot[0] = start + st->slot_width;
                    double queue_delay = start - dc;
                    int miss = st->miss_table[w * st->max_pc + (p + 1)];
                    i64 lat = miss ? st->dram_cycles : st->l2_cycles;
                    if (miss)
                        st->mem_counters[1]++;
                    st->mem_counters[0]++;
                    i64 comp =
                        (i64)(((double)cycle + queue_delay) + (double)lat);
                    st->ready_at[(s * W + w) * 17 + dest] = RA_PENDING;
                    st->outstanding[s * W + w]++;
                    if (*hlen >= st->heap_cap)
                        return -1;
                    heap_push(heap, stride, hlen, HEAP_PACK(comp, w, dest));
                } else {
                    st->ready_at[(s * W + w) * 17 + dest] =
                        cycle + st->s_latency[spos];
                }
            }
            refresh_head(st, s, w);
            iss_span[issued] = st->s_span[spos];
            iss_share[issued] = st->s_share[spos];
            issued++;
        }

        if (issued == 0)
            st->st_stall[s]++;

        /* FII: fill leftover hardware slots with fake instructions. */
        st->fake_acc[s] += st->fake_rate[s];
        int fakes = 0;
        while (st->fake_acc[s] >= 1.0 && issued + fakes < 2 &&
               unit_avail(st, s, 0, cycle)) {
            st->fake_acc[s] -= 1.0;
            fakes++;
            st->st_fake[s]++;
            st->totals[1]++;
        }
        if (st->fake_acc[s] > 2.0)
            st->fake_acc[s] = 2.0;

        /* PG idle accounting (real issues only). */
        for (i64 u = 0; u < 3; u++) {
            if (used[u])
                st->unit_idle[s * 3 + u] = 0;
            else
                st->unit_idle[s * 3 + u]++;
        }

        /* Smear issued energy over pipeline occupancy (fakes last,
         * span 1), then rotate the wheel. */
        double *wheel = st->wheel + s * 8;
        i64 pos = st->wheel_pos[s];
        for (int k = 0; k < issued; k++) {
            for (i64 off = 0; off < iss_span[k]; off++)
                wheel[(pos + off) & 7] += iss_share[k];
        }
        for (int k = 0; k < fakes; k++)
            wheel[pos] += st->fake_energy;
        double dynamic_energy = wheel[pos];
        wheel[pos] = 0.0;
        st->wheel_pos[s] = (pos + 1) & 7;

        double freq = st->clock_hz * st->freq_scale[s];
        double energy = st->idle_energy + dynamic_energy;
        st->powers[s] = st->leakage[s] + energy * freq;
    }

    /* Kernel-done census for the GPU's launch barrier. */
    i64 ndone = 0;
    for (i64 s = 0; s < S; s++) {
        int done = 1;
        for (i64 w = 0; w < W; w++) {
            if (!st->warp_done[s * W + w] || st->outstanding[s * W + w] != 0) {
                done = 0;
                break;
            }
        }
        ndone += done;
    }
    st->ndone[0] = ndone;
    return ndone;
}

/* Step a batch of independent engines one nominal clock in a single
 * call — the co-simulator's B-lane hot path.  Each lane is the exact
 * engine_step() above on its own state struct; lanes share nothing, so
 * ordering across lanes cannot affect results.  Each lane's kernel-done
 * census lands in its own *ndone.  Returns -(lane + 1) on the first
 * lane whose pending-load heap overflows, else the number of lanes
 * whose every SM is kernel-done (their launch barrier is due).
 */
i64 engine_step_batch(EngineState **sts, i64 nlanes, i64 cycle) {
    i64 due = 0;
    for (i64 b = 0; b < nlanes; b++) {
        i64 ndone = engine_step(sts[b], cycle);
        if (ndone < 0)
            return -(b + 1);
        due += ndone == sts[b]->num_sms;
    }
    return due;
}
