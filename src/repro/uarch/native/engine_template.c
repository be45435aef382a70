/* The native engine tier: one specialized cycle loop in C99.
 *
 * This file is the second half of a single translation unit: the Python
 * side (repro.uarch.native) renders a #define header per ProcessorConfig
 * feature vector (the same flags/consts repro.uarch.compiled specializes
 * on, plus the machine geometry the Python tiers read off live objects)
 * and prepends it to this template before invoking the system C
 * compiler.  Dead feature branches are dropped by the preprocessor
 * (#if F_*), configuration scalars are compile-time literals, and the
 * whole trace runs in one call.
 *
 * Stage semantics and ordering mirror repro/uarch/compiled.py's
 * _TEMPLATE line for line — when editing either, edit both (the
 * three-tier differential suite enforces the equivalence).  The
 * contract is bit-identical SimStats with the interpreter.
 *
 * Entry point:
 *   int64_t repro_run(n, skip, rec_slot, rec_addr, tab_pc, tab_op,
 *                     tab_dest, tab_src1, tab_src2, tab_taken,
 *                     cache_tags_io, bht_io, counters)
 * The trace is slot-coded (repro.trace.columns): rec_slot and rec_addr
 * hold skip + n records, and every other field of record i is
 * tab_<field>[rec_slot[i]], read in place.  The first skip records are
 * the functional warm-up prefix (cache tags and BHT only, exactly
 * Processor._warm_up); the next n are simulated.
 * Return codes: 0 = trace completed; 1 = simulated deadlock (counters
 * and cache/BHT state are synced, the caller raises
 * SimulationDeadlock); 2 = internal invariant violated (nothing is
 * synced, the caller falls back to the compiled tier which reproduces
 * the same crash); 3 = out of memory (nothing ran, caller falls back).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---- decode tables (initializers rendered by the header) ----------- */

static const int8_t OP_DEST[N_OPS] = OP_DEST_INIT;   /* -1 none, 0 INT, 1 FP */
static const uint8_t OP_LOAD[N_OPS] = OP_LOAD_INIT;
static const uint8_t OP_STORE[N_OPS] = OP_STORE_INIT;
static const uint8_t OP_BR[N_OPS] = OP_BR_INIT;
static const int8_t OP_FU[N_OPS] = OP_FU_INIT;
static const int8_t OP_LAT[N_OPS] = OP_LAT_INIT;
static const uint8_t OP_PIPE[N_OPS] = OP_PIPE_INIT;
static const int32_t FU_N[6] = FU_N_INIT;

#define TAG_SHIFT 16
#define TIDX(tag) (((int64_t)(tag) >> TAG_SHIFT) * MAX_IDENT \
                   + ((tag) & 0xFFFF))

/* Dynamic-instruction flag bits. */
#define FL_DONE 1u
#define FL_INIQ 2u
#define FL_RES 4u
#define FL_MISP 8u
#define FL_MGATED 16u

#define EV_CAP (ROB_SIZE + FB_SIZE + 16)
#define SH_CAP (ROB_SIZE + 16)
#define SQ_RING (ROB_SIZE + 1)
#define MSHR_HEAP (MSHR_N + 2)

/* ---- machine state (file scope: the loader uses PyDLL, so the GIL
 * serializes every entry and statics are safe) ----------------------- */

static int g_rc;

static int64_t g_n;
/* the simulated records: slot ids and addresses, plus the slot table */
static const int32_t *r_slot;
static const int64_t *r_addr;
static const int64_t *t_pc;
static const int32_t *t_op, *t_dest, *t_src1, *t_src2;
static const int8_t *t_taken;
#define R_PC(s) t_pc[r_slot[s]]
#define R_OP(s) t_op[r_slot[s]]
#define R_DEST(s) t_dest[r_slot[s]]
#define R_SRC1(s) t_src1[r_slot[s]]
#define R_SRC2(s) t_src2[r_slot[s]]
#define R_TAKEN(s) t_taken[r_slot[s]]

/* per-instruction dynamic state, indexed by seq (== trace index) */
static int64_t *d_nb, *d_mra, *d_dra, *d_cat;
static int32_t *d_dtag, *d_dphys, *d_prev, *d_vpr, *d_rt1, *d_rt2, *d_xcnt;
static uint8_t *d_fl, *d_ni, *d_nf, *d_wc;

/* ROB / fetch buffer rings */
static int32_t *rob_q, *fb_q;
static int64_t rob_h, rob_n, fb_h, fb_n;

/* event heap: (time, seq), keyed by time only; same-cycle events are
 * drained together and sorted by seq, matching events.sort(key=_seq_of) */
static int64_t *evt_t;
static int32_t *evt_s;
static int64_t ev_n;

/* ready / pending-mem heaps (int32 seq min-heaps) and scratch arrays */
static int32_t *rh_q, *pm_q, *rt_q, *sp_q, *mg_q, *ev_list;
static int64_t rh_n, pm_n, mg_n;

/* wakeup lists: per-tag FIFO linked lists from a bump node pool */
static int32_t *wn_next, *wn_seq;
static int64_t wn_n, wn_cap;
static int32_t *w_head, *w_tail, *dw_head, *dw_tail;
static int64_t *ready_at;

/* free pools */
typedef struct {
    int32_t *ring;
    uint8_t *member;
    int64_t head, count, capacity, ring_cap, allocations, min_free;
} pool_t;
static pool_t pool_phys[2];   /* conv: renamer.free; vp: free_phys */
#if F_VP
static pool_t pool_vp[2];
static int32_t *pmt[2], *gvp[2], *gp[2];
static uint8_t *gv[2];
static int64_t res_reg[2], res_used[2];
static int32_t *pend_q[2];
static int64_t pend_h[2], pend_t[2];
static const int64_t res_nrr[2] = { NRR_INT, NRR_FP };
#else
static int32_t *map_tab[2];
#endif
static const int64_t pool_nlr[2] = { NLR_INT, NLR_FP };
static const int64_t pool_npr[2] = { NPR_INT, NPR_FP };
#if F_VP
static const int64_t pool_nvr[2] = { NVR_INT, NVR_FP };
#endif

/* store queue: ring in age order + monotonic unknown-address queue */
static int32_t *sq_seq;
static int64_t *sq_word, *sq_drt;
static uint8_t *sq_known;
static int64_t sq_h, sq_n;
static int32_t *un_q;
static int64_t un_h, un_t;
static int64_t sq_forwards, sq_waits;

/* functional units */
static int64_t fu_busy[6][FU_MAX], fu_issued[6][FU_MAX];
static int64_t fu_issues[6], fu_stalls[6];

/* cache + MSHRs + bus + ports */
static int64_t *c_tags;
static int64_t c_loads, c_load_misses, c_stores, c_store_misses,
    c_mshr_stalls;
static int64_t mp_line[MSHR_N], mp_fill[MSHR_N];
static int64_t mp_n;
static int64_t mh_fill[MSHR_HEAP], mh_line[MSHR_HEAP];
static int64_t mh_n;
static int64_t m_allocs, m_merges, m_rejects;
static int64_t bus_free, bus_transfers, bus_busy;
static int64_t port_cycle, ports_used, port_conflicts;
static int last_refusal; /* 1 disambiguation, 2 port, 3 mshr */

/* BHT */
static int8_t *bht;

#if F_RF
static int64_t rf_reads[2], rf_writes[2];
static int64_t rf_bank_r[2 * RF_BANKS], rf_bank_w[2 * RF_BANKS];
static int64_t rf_read_stalls, rf_bank_conflicts;
#endif

/* renamer diagnostics */
static int64_t ren_decode_stalls, ren_vp_stalls, ren_squashes,
    ren_issue_blocks;

/* ---- small helpers ------------------------------------------------- */

static int cmp_i32(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

static void ev_push(int64_t t, int32_t s)
{
    int64_t i;
    if (ev_n >= EV_CAP) { g_rc = 2; return; }
    i = ev_n++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (evt_t[par] <= t)
            break;
        evt_t[i] = evt_t[par];
        evt_s[i] = evt_s[par];
        i = par;
    }
    evt_t[i] = t;
    evt_s[i] = s;
}

static int32_t ev_pop(void)
{
    int32_t top = evt_s[0];
    int64_t lt, i;
    int32_t ls;
    ev_n--;
    lt = evt_t[ev_n];
    ls = evt_s[ev_n];
    i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= ev_n)
            break;
        if (c + 1 < ev_n && evt_t[c + 1] < evt_t[c])
            c++;
        if (evt_t[c] >= lt)
            break;
        evt_t[i] = evt_t[c];
        evt_s[i] = evt_s[c];
        i = c;
    }
    if (ev_n > 0) {
        evt_t[i] = lt;
        evt_s[i] = ls;
    }
    return top;
}

static void h32_push(int32_t *h, int64_t *pn, int64_t cap, int32_t v)
{
    int64_t i;
    if (*pn >= cap) { g_rc = 2; return; }
    i = (*pn)++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (h[par] <= v)
            break;
        h[i] = h[par];
        i = par;
    }
    h[i] = v;
}

static int32_t h32_pop(int32_t *h, int64_t *pn)
{
    int32_t top = h[0], last;
    int64_t i, m;
    m = --(*pn);
    last = h[m];
    i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && h[c + 1] < h[c])
            c++;
        if (h[c] >= last)
            break;
        h[i] = h[c];
        i = c;
    }
    if (m > 0)
        h[i] = last;
    return top;
}

static int32_t pool_alloc(pool_t *p)
{
    int32_t id;
    if (p->count <= 0) { g_rc = 2; return -1; }
    id = p->ring[p->head];
    p->head = (p->head + 1) % p->ring_cap;
    p->count--;
    p->member[id] = 0;
    p->allocations++;
    if (p->count < p->min_free)
        p->min_free = p->count;
    return id;
}

static void pool_release(pool_t *p, int32_t id)
{
    if (id < 0 || id > MAX_IDENT || p->member[id]) { g_rc = 2; return; }
    p->member[id] = 1;
    p->ring[(p->head + p->count) % p->ring_cap] = id;
    p->count++;
    if (p->count > p->capacity)
        g_rc = 2;
}

static void wl_append(int32_t *head, int32_t *tail, int64_t t, int32_t s)
{
    int32_t node;
    if (wn_n >= wn_cap) { g_rc = 2; return; }
    node = (int32_t)wn_n++;
    wn_seq[node] = s;
    wn_next[node] = -1;
    if (head[t] < 0)
        head[t] = node;
    else
        wn_next[tail[t]] = node;
    tail[t] = node;
}

/* ---- store queue --------------------------------------------------- */

static int64_t sq_find(int32_t seq)
{
    /* Binary search the age-ordered ring; returns a ring offset or -1. */
    int64_t lo = 0, hi = sq_n - 1;
    while (lo <= hi) {
        int64_t mid = (lo + hi) >> 1;
        int32_t v = sq_seq[(sq_h + mid) % SQ_RING];
        if (v == seq)
            return mid;
        if (v < seq)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return -1;
}

static void sq_insert(int32_t seq)
{
#if SQ_CAP
    if (sq_n >= SQ_CAP) { g_rc = 2; return; }
#endif
    if (sq_n >= SQ_RING) { g_rc = 2; return; }
    if (sq_n && sq_seq[(sq_h + sq_n - 1) % SQ_RING] >= seq) {
        g_rc = 2;
        return;
    }
    {
        int64_t slot = (sq_h + sq_n) % SQ_RING;
        sq_seq[slot] = seq;
        sq_known[slot] = 0;
        sq_word[slot] = -1;
        sq_drt[slot] = -1;
        sq_n++;
    }
    if (un_t > g_n) { g_rc = 2; return; }
    un_q[un_t++] = seq;
}

static void sq_set_address(int32_t seq, int64_t addr)
{
    int64_t off = sq_find(seq);
    int64_t slot;
    if (off < 0) { g_rc = 2; return; }
    slot = (sq_h + off) % SQ_RING;
    sq_known[slot] = 1;
    sq_word[slot] = addr / 8;
}

static void sq_set_data_ready(int32_t seq, int64_t when)
{
    int64_t off = sq_find(seq);
    if (off < 0) { g_rc = 2; return; }
    sq_drt[(sq_h + off) % SQ_RING] = when;
}

static void sq_remove_front(int32_t seq)
{
    if (!sq_n || sq_seq[sq_h] != seq) { g_rc = 2; return; }
    sq_h = (sq_h + 1) % SQ_RING;
    sq_n--;
}

static int32_t sq_oldest_unknown(void)
{
    while (un_h < un_t) {
        int32_t seq = un_q[un_h];
        int64_t off = sq_find(seq);
        if (off < 0 || sq_known[(sq_h + off) % SQ_RING]) {
            un_h++;
            continue;
        }
        return seq;
    }
    return -1;
}

/* check_load outcomes */
#define LO_WAIT 0
#define LO_FORWARD 1
#define LO_ACCESS 2

static int sq_check_load(int32_t load_seq, int64_t addr, int64_t now)
{
    int32_t oldest;
    int64_t word, k, match = -1;
    if (!sq_n)
        return LO_ACCESS;
    oldest = sq_oldest_unknown();
    if (oldest >= 0 && oldest < load_seq) {
        sq_waits++;
        return LO_WAIT;
    }
    word = addr / 8;
    for (k = 0; k < sq_n; k++) {
        int64_t slot = (sq_h + k) % SQ_RING;
        if (sq_seq[slot] >= load_seq)
            break;
        if (sq_word[slot] == word)
            match = slot; /* youngest older match wins */
    }
    if (match < 0)
        return LO_ACCESS;
    if (sq_drt[match] < 0 || sq_drt[match] > now) {
        sq_waits++;
        return LO_WAIT;
    }
    sq_forwards++;
    return LO_FORWARD;
}

/* ---- MSHRs + bus + cache ------------------------------------------- */

static void mshr_expire(int64_t now)
{
    while (mh_n && mh_fill[0] <= now) {
        int64_t fill = mh_fill[0], line = mh_line[0], i, m, lt, ll;
        m = --mh_n;
        lt = mh_fill[m];
        ll = mh_line[m];
        i = 0;
        for (;;) {
            int64_t c = 2 * i + 1;
            if (c >= m)
                break;
            if (c + 1 < m && mh_fill[c + 1] < mh_fill[c])
                c++;
            if (mh_fill[c] >= lt)
                break;
            mh_fill[i] = mh_fill[c];
            mh_line[i] = mh_line[c];
            i = c;
        }
        if (m > 0) {
            mh_fill[i] = lt;
            mh_line[i] = ll;
        }
        for (i = 0; i < mp_n; i++)
            if (mp_line[i] == line && mp_fill[i] == fill) {
                mp_line[i] = mp_line[mp_n - 1];
                mp_fill[i] = mp_fill[mp_n - 1];
                mp_n--;
                break;
            }
    }
}

static int64_t mshr_lookup(int64_t line, int64_t now)
{
    int64_t i;
    mshr_expire(now);
    for (i = 0; i < mp_n; i++)
        if (mp_line[i] == line) {
            m_merges++;
            return mp_fill[i];
        }
    return -1;
}

static int mshr_has_room(int64_t now)
{
    mshr_expire(now);
    if (mp_n >= MSHR_N) {
        m_rejects++;
        return 0;
    }
    return 1;
}

static void mshr_alloc(int64_t line, int64_t now, int64_t fill)
{
    int64_t i;
    mshr_expire(now);
    for (i = 0; i < mp_n; i++)
        if (mp_line[i] == line) { g_rc = 2; return; }
    if (mp_n >= MSHR_N || mh_n >= MSHR_HEAP) { g_rc = 2; return; }
    mp_line[mp_n] = line;
    mp_fill[mp_n] = fill;
    mp_n++;
    i = mh_n++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (mh_fill[par] <= fill)
            break;
        mh_fill[i] = mh_fill[par];
        mh_line[i] = mh_line[par];
        i = par;
    }
    mh_fill[i] = fill;
    mh_line[i] = line;
    m_allocs++;
}

static int64_t mshr_next_fill(int64_t now)
{
    mshr_expire(now);
    /* Every heap pair with fill > now is live (allocate rejects
     * duplicate lines and deletion only happens at expiry), so the top
     * is the answer. */
    return mh_n ? mh_fill[0] : -1;
}

static int64_t bus_fill(int64_t now)
{
    int64_t start = now + MISS_PEN - BUS_CPL, finish;
    if (bus_free > start)
        start = bus_free;
    finish = start + BUS_CPL;
    bus_free = finish;
    bus_transfers++;
    bus_busy += BUS_CPL;
    return finish;
}

static int64_t cache_load(int64_t addr, int64_t now)
{
    int64_t line = addr / LINE_BYTES, pending, fill;
    c_loads++;
    pending = mshr_lookup(line, now);
    if (pending >= 0) {
        int64_t hit = now + HIT_LAT;
        c_load_misses++;
        return pending > hit ? pending : hit;
    }
    if (c_tags[line % NUM_LINES] == line)
        return now + HIT_LAT;
    c_load_misses++;
    if (!mshr_has_room(now)) {
        c_mshr_stalls++;
        c_loads--;
        c_load_misses--;
        return -1;
    }
    fill = bus_fill(now);
    mshr_alloc(line, now, fill);
    c_tags[line % NUM_LINES] = line;
    return fill;
}

static void cache_store(int64_t addr, int64_t now)
{
    int64_t line = addr / LINE_BYTES, pending, fill;
    c_stores++;
    pending = mshr_lookup(line, now);
    if (pending >= 0) {
        c_store_misses++;
        return;
    }
    if (c_tags[line % NUM_LINES] == line)
        return;
    c_store_misses++;
    if (!mshr_has_room(now)) {
        c_tags[line % NUM_LINES] = line;
        return;
    }
    fill = bus_fill(now);
    mshr_alloc(line, now, fill);
    c_tags[line % NUM_LINES] = line;
}

static int port_available(int64_t now)
{
    if (now != port_cycle) {
        port_cycle = now;
        ports_used = 0;
    }
    return ports_used < CACHE_PORTS;
}

static int64_t try_load(int32_t seq, int64_t addr, int64_t now)
{
    int outcome = sq_check_load(seq, addr, now);
    int64_t done;
    if (outcome == LO_WAIT) {
        last_refusal = 1;
        return -1;
    }
    if (outcome == LO_FORWARD)
        return now + HIT_LAT; /* forwarding costs no cache port */
    if (!port_available(now)) {
        port_conflicts++;
        last_refusal = 2;
        return -1;
    }
    done = cache_load(addr, now);
    if (done < 0) {
        last_refusal = 3;
        return -1;
    }
    ports_used++;
    return done;
}

static int try_store_commit(int64_t addr, int64_t now)
{
    if (!port_available(now)) {
        port_conflicts++;
        return 0;
    }
    ports_used++;
    cache_store(addr, now);
    return 1;
}

/* ---- register-file port model -------------------------------------- */

#if F_RF
static void rf_start_read(void)
{
    rf_reads[0] = rf_reads[1] = RF_RP;
#if RF_BANKS > 1
    {
        int64_t i;
        for (i = 0; i < 2 * RF_BANKS; i++)
            rf_bank_r[i] = RF_BANK_RP;
    }
#endif
}

static void rf_start_write(void)
{
    rf_writes[0] = rf_writes[1] = RF_WP;
#if RF_BANKS > 1
    {
        int64_t i;
        for (i = 0; i < 2 * RF_BANKS; i++)
            rf_bank_w[i] = RF_BANK_WP;
    }
#endif
}

#define RF_SLOT(tag) (((int64_t)(tag) >> TAG_SHIFT) * RF_BANKS \
                      + ((tag) & 0xFFFF) % RF_BANKS)

static int rf_can_read(int32_t s)
{
    int64_t ni = d_ni[s], nf = d_nf[s];
    if (ni > rf_reads[0] || nf > rf_reads[1]) {
        rf_read_stalls++;
        return 0;
    }
#if RF_BANKS > 1
    if (ni || nf) {
        int32_t t1 = d_rt1[s], t2 = d_rt2[s];
        if (t1 >= 0 && t2 >= 0) {
            int64_t s1 = RF_SLOT(t1), s2 = RF_SLOT(t2);
            if (s1 == s2) {
                if (rf_bank_r[s1] < 2) {
                    rf_read_stalls++;
                    rf_bank_conflicts++;
                    return 0;
                }
            } else if (rf_bank_r[s1] < 1 || rf_bank_r[s2] < 1) {
                rf_read_stalls++;
                rf_bank_conflicts++;
                return 0;
            }
        } else if (t1 >= 0 && rf_bank_r[RF_SLOT(t1)] < 1) {
            rf_read_stalls++;
            rf_bank_conflicts++;
            return 0;
        }
    }
#endif
    return 1;
}

static void rf_claim_read(int32_t s)
{
    rf_reads[0] -= d_ni[s];
    rf_reads[1] -= d_nf[s];
#if RF_BANKS > 1
    if (d_ni[s] || d_nf[s]) {
        if (d_rt1[s] >= 0)
            rf_bank_r[RF_SLOT(d_rt1[s])]--;
        if (d_rt2[s] >= 0)
            rf_bank_r[RF_SLOT(d_rt2[s])]--;
    }
#endif
}

static int rf_can_write(int32_t s, int cls)
{
    if (rf_writes[cls] == 0)
        return 0;
#if RF_BANKS > 1
    if (rf_bank_w[RF_SLOT(d_dtag[s])] == 0) {
        rf_bank_conflicts++;
        return 0;
    }
#endif
    return 1;
}

static void rf_claim_write(int32_t s, int cls)
{
    rf_writes[cls]--;
#if RF_BANKS > 1
    rf_bank_w[RF_SLOT(d_dtag[s])]--;
#endif
}
#endif /* F_RF */

/* ---- VP allocation (write-back or issue stage) --------------------- */

#if F_VP
static int vp_try_alloc(int32_t s, int cls)
{
    pool_t *fr = &pool_phys[cls];
    int32_t phys, vp;
    int64_t idx;
    if (!((d_fl[s] & FL_RES) || fr->count > res_nrr[cls] - res_used[cls]))
        return 0;
    if (fr->count == 0) {
        g_rc = 2; /* the NRR invariant is broken */
        return 1;
    }
    phys = pool_alloc(fr);
    d_dphys[s] = phys;
    vp = d_vpr[s];
    pmt[cls][vp] = phys;
    idx = R_DEST(s) & INDEX_MASK;
    if (gvp[cls][idx] == vp) {
        gp[cls][idx] = phys;
        gv[cls][idx] = 1;
    }
    if (d_fl[s] & FL_RES)
        res_used[cls]++;
    return 1;
}
#endif

/* ---- allocation / teardown ----------------------------------------- */

static void *g_blocks[64];
static int g_nblocks;

static void *xalloc(int64_t nbytes)
{
    void *p = malloc((size_t)nbytes);
    if (p == NULL)
        g_rc = 3;
    else
        g_blocks[g_nblocks++] = p;
    return p;
}

static void free_all(void)
{
    int i;
    for (i = 0; i < g_nblocks; i++)
        free(g_blocks[i]);
    g_nblocks = 0;
}

static void pool_init(pool_t *p, int64_t first, int64_t last_excl)
{
    int64_t i, cap = last_excl - first;
    p->capacity = cap;
    p->ring_cap = cap + 1;
    p->head = 0;
    p->count = cap;
    p->allocations = 0;
    p->min_free = cap;
    p->ring = (int32_t *)xalloc(p->ring_cap * 4);
    p->member = (uint8_t *)xalloc((int64_t)MAX_IDENT + 1);
    if (g_rc)
        return;
    memset(p->member, 0, (size_t)MAX_IDENT + 1);
    for (i = 0; i < cap; i++) {
        p->ring[i] = (int32_t)(first + i);
        p->member[first + i] = 1;
    }
}

static int setup(int64_t n)
{
    int64_t i, cls;
    g_rc = 0;
    g_nblocks = 0;
    g_n = n;

    d_nb = (int64_t *)xalloc(n * 8);
    d_mra = (int64_t *)xalloc(n * 8);
    d_dra = (int64_t *)xalloc(n * 8);
    d_cat = (int64_t *)xalloc(n * 8);
    d_dtag = (int32_t *)xalloc(n * 4);
    d_dphys = (int32_t *)xalloc(n * 4);
    d_prev = (int32_t *)xalloc(n * 4);
    d_vpr = (int32_t *)xalloc(n * 4);
    d_rt1 = (int32_t *)xalloc(n * 4);
    d_rt2 = (int32_t *)xalloc(n * 4);
    d_xcnt = (int32_t *)xalloc(n * 4);
    d_fl = (uint8_t *)xalloc(n);
    d_ni = (uint8_t *)xalloc(n);
    d_nf = (uint8_t *)xalloc(n);
    d_wc = (uint8_t *)xalloc(n);

    rob_q = (int32_t *)xalloc((int64_t)(ROB_SIZE + 1) * 4);
    fb_q = (int32_t *)xalloc((int64_t)(FB_SIZE + 1) * 4);
    evt_t = (int64_t *)xalloc((int64_t)EV_CAP * 8);
    evt_s = (int32_t *)xalloc((int64_t)EV_CAP * 4);
    ev_list = (int32_t *)xalloc((int64_t)EV_CAP * 4);
    rh_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);
    pm_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);
    rt_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);
    sp_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);
    mg_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);

    wn_cap = 2 * n + 8;
    wn_next = (int32_t *)xalloc(wn_cap * 4);
    wn_seq = (int32_t *)xalloc(wn_cap * 4);
    wn_n = 0;
    w_head = (int32_t *)xalloc(2 * (int64_t)MAX_IDENT * 4);
    w_tail = (int32_t *)xalloc(2 * (int64_t)MAX_IDENT * 4);
    dw_head = (int32_t *)xalloc(2 * (int64_t)MAX_IDENT * 4);
    dw_tail = (int32_t *)xalloc(2 * (int64_t)MAX_IDENT * 4);
    ready_at = (int64_t *)xalloc(2 * (int64_t)MAX_IDENT * 8);

    sq_seq = (int32_t *)xalloc((int64_t)SQ_RING * 4);
    sq_word = (int64_t *)xalloc((int64_t)SQ_RING * 8);
    sq_drt = (int64_t *)xalloc((int64_t)SQ_RING * 8);
    sq_known = (uint8_t *)xalloc((int64_t)SQ_RING);
    un_q = (int32_t *)xalloc((n + 1) * 4);

#if F_VP
    for (cls = 0; cls < 2; cls++) {
        pmt[cls] = (int32_t *)xalloc(pool_nvr[cls] * 4);
        gvp[cls] = (int32_t *)xalloc(pool_nlr[cls] * 4);
        gp[cls] = (int32_t *)xalloc(pool_nlr[cls] * 4);
        gv[cls] = (uint8_t *)xalloc(pool_nlr[cls]);
        pend_q[cls] = (int32_t *)xalloc((n + 1) * 4);
    }
#else
    for (cls = 0; cls < 2; cls++)
        map_tab[cls] = (int32_t *)xalloc(pool_nlr[cls] * 4);
#endif
    if (g_rc)
        return g_rc;

    rob_h = rob_n = fb_h = fb_n = 0;
    ev_n = rh_n = pm_n = mg_n = 0;
    sq_h = sq_n = un_h = un_t = 0;
    sq_forwards = sq_waits = 0;

    for (i = 0; i < 2 * MAX_IDENT; i++) {
        w_head[i] = w_tail[i] = dw_head[i] = dw_tail[i] = -1;
        ready_at[i] = FAR_FUTURE;
    }
    for (cls = 0; cls < 2; cls++)
        for (i = 0; i < pool_nlr[cls]; i++)
            ready_at[cls * MAX_IDENT + i] = 0;

    for (cls = 0; cls < 2; cls++) {
        pool_init(&pool_phys[cls], pool_nlr[cls], pool_npr[cls]);
#if F_VP
        pool_init(&pool_vp[cls], pool_nlr[cls], pool_nvr[cls]);
        res_reg[cls] = res_used[cls] = 0;
        pend_h[cls] = pend_t[cls] = 0;
        for (i = 0; i < pool_nvr[cls]; i++)
            pmt[cls][i] = i < pool_nlr[cls] ? (int32_t)i : -1;
        for (i = 0; i < pool_nlr[cls]; i++) {
            gvp[cls][i] = (int32_t)i;
            gp[cls][i] = (int32_t)i;
            gv[cls][i] = 1;
        }
#else
        for (i = 0; i < pool_nlr[cls]; i++)
            map_tab[cls][i] = (int32_t)i;
#endif
    }
    if (g_rc)
        return g_rc;

    for (i = 0; i < 6; i++) {
        int64_t u;
        fu_issues[i] = fu_stalls[i] = 0;
        for (u = 0; u < FU_MAX; u++) {
            fu_busy[i][u] = 0;
            fu_issued[i][u] = -1;
        }
    }

    mp_n = mh_n = 0;
    m_allocs = m_merges = m_rejects = 0;
    c_loads = c_load_misses = c_stores = c_store_misses = c_mshr_stalls = 0;
    bus_free = bus_transfers = bus_busy = 0;
    port_cycle = -1;
    ports_used = 0;
    port_conflicts = 0;
    last_refusal = 0;
    ren_decode_stalls = ren_vp_stalls = ren_squashes = ren_issue_blocks = 0;
#if F_RF
    rf_read_stalls = rf_bank_conflicts = 0;
    rf_reads[0] = rf_reads[1] = rf_writes[0] = rf_writes[1] = 0;
    for (i = 0; i < 2 * RF_BANKS; i++)
        rf_bank_r[i] = rf_bank_w[i] = 0;
#endif
    return 0;
}

/* ---- functional warm-up ---------------------------------------------- */

/* Processor._warm_up over the skip prefix: install the line of every
 * nonzero address and train the BHT on every branch, with no timing. */
static void warm_up(int64_t skip, const int32_t *slot, const int64_t *addr)
{
    int64_t i;
    for (i = 0; i < skip; i++) {
        int32_t k = slot[i];
        if (addr[i]) {
            int64_t line = addr[i] / LINE_BYTES;
            c_tags[line % NUM_LINES] = line;
        }
        if (OP_BR[t_op[k]]) {
            int64_t bidx = (t_pc[k] >> 2) & BHT_MASK;
            int8_t ctr = bht[bidx];
            if (t_taken[k]) {
                if (ctr < 3)
                    bht[bidx] = ctr + 1;
            } else if (ctr > 0) {
                bht[bidx] = ctr - 1;
            }
        }
    }
}

/* ---- the run loop --------------------------------------------------- */

int64_t repro_run(int64_t n, int64_t skip,
                  const int32_t *rec_slot, const int64_t *rec_addr,
                  const int64_t *tab_pc, const int32_t *tab_op,
                  const int32_t *tab_dest, const int32_t *tab_src1,
                  const int32_t *tab_src2, const int8_t *tab_taken,
                  int64_t *cache_tags_io, int8_t *bht_io,
                  int64_t *counters)
{
    int64_t now = 0, fetch_resume_at = 0, next_seq = 0, last_commit = 0;
    int64_t iq_count = 0, committed = 0, idle_skips = 0,
        idle_cycles_skipped = 0;
    int64_t s_fetched = 0, s_executions = 0, s_squashes = 0,
        s_issue_alloc = 0, s_branches = 0, s_mispredicts = 0,
        s_rob_full = 0, s_iq_full = 0, s_no_reg = 0, s_sq_full = 0,
        s_fetch_stall = 0, s_wb_defers = 0, s_int_occ = 0, s_fp_occ = 0,
        s_peak_rob = 0;
    int exhausted = 0;
    int64_t deadlock_head = -1;
    int64_t rc;

    c_tags = cache_tags_io;
    bht = bht_io;
    r_slot = rec_slot + skip;
    r_addr = rec_addr + skip;
    t_pc = tab_pc;
    t_op = tab_op;
    t_dest = tab_dest;
    t_src1 = tab_src1;
    t_src2 = tab_src2;
    t_taken = tab_taken;

    if (setup(n)) {
        rc = g_rc;
        free_all();
        return rc;
    }
    warm_up(skip, rec_slot, rec_addr);

    while (!(exhausted && !fb_n && !rob_n)) {
        /* ---- write-back: completion events -------------------------- */
        int64_t ev_cnt = 0;
        while (ev_n && evt_t[0] <= now)
            ev_list[ev_cnt++] = ev_pop();
        if (ev_cnt) {
            int64_t k;
#if F_RF
            rf_start_write();
#else
            int64_t int_wb = WRITE_PORTS, fp_wb = WRITE_PORTS;
#endif
            qsort(ev_list, (size_t)ev_cnt, 4, cmp_i32);
            for (k = 0; k < ev_cnt; k++) {
                int32_t s = ev_list[k];
                int32_t op = R_OP(s);
                int cls;
                int32_t tag;
                if (OP_STORE[op]) {
                    sq_set_address(s, r_addr[s]);
                    d_mra[s] = now;
                    if (d_dra[s] >= 0) {
                        d_fl[s] |= FL_DONE;
                        d_cat[s] = now;
                    }
                    continue;
                }
                if (OP_BR[op]) {
                    int64_t bidx = (R_PC(s) >> 2) & BHT_MASK;
                    int8_t ctr = bht[bidx];
                    s_branches++;
                    if (R_TAKEN(s)) {
                        if (ctr < 3)
                            bht[bidx] = ctr + 1;
                    } else if (ctr > 0) {
                        bht[bidx] = ctr - 1;
                    }
                    if (d_fl[s] & FL_MISP) {
                        s_mispredicts++;
                        fetch_resume_at = now + 1;
                    }
                    d_fl[s] |= FL_DONE;
                    d_cat[s] = now;
                    continue;
                }
                cls = OP_DEST[op];
#if F_RF
                if (cls >= 0 && !rf_can_write(s, cls)) {
#else
                if (cls >= 0 && (cls == 0 ? int_wb : fp_wb) == 0) {
#endif
                    s_wb_defers++;
                    ev_push(now + 1, s);
                    continue;
                }
#if F_COMPLETE
                if (cls >= 0 && d_dphys[s] < 0) {
                    if (!vp_try_alloc(s, cls)) {
                        ren_squashes++;
                        s_squashes++;
                        d_nb[s] = now + 1;
                        h32_push(rh_q, &rh_n, SH_CAP, s);
                        continue;
                    }
                    if (g_rc)
                        goto bail;
                }
#endif
                if (cls >= 0) {
#if F_RF
                    rf_claim_write(s, cls);
#else
                    if (cls == 0)
                        int_wb--;
                    else
                        fp_wb--;
#endif
                }
                d_fl[s] |= FL_DONE;
                d_cat[s] = now;
                if (d_fl[s] & FL_INIQ) {
                    d_fl[s] &= ~FL_INIQ;
                    iq_count--;
                }
                tag = d_dtag[s];
                if (tag != -1) {
                    int64_t ti = TIDX(tag);
                    int32_t node;
                    ready_at[ti] = now;
                    node = w_head[ti];
                    w_head[ti] = w_tail[ti] = -1;
                    while (node >= 0) {
                        int32_t w = wn_seq[node];
                        d_wc[w]--;
                        if (d_wc[w] == 0)
                            h32_push(rh_q, &rh_n, SH_CAP, w);
                        node = wn_next[node];
                    }
                    node = dw_head[ti];
                    dw_head[ti] = dw_tail[ti] = -1;
                    while (node >= 0) {
                        int32_t d = wn_seq[node];
                        d_dra[d] = now;
                        sq_set_data_ready(d, now);
                        if (d_mra[d] >= 0 && !(d_fl[d] & FL_DONE)) {
                            d_fl[d] |= FL_DONE;
                            d_cat[d] = now;
                        }
                        node = wn_next[node];
                    }
                }
            }
            if (g_rc)
                goto bail;
        }

        /* ---- commit: in-order retirement ---------------------------- */
        if (rob_n) {
            int64_t budget = COMMIT_W, before = committed;
            while (budget && rob_n) {
                int32_t s = rob_q[rob_h];
                int32_t op = R_OP(s);
                int cls;
                if (!(d_fl[s] & FL_DONE) || d_cat[s] + COMMIT_DELAY > now)
                    break;
                if (OP_STORE[op]) {
                    if (!try_store_commit(r_addr[s], now))
                        break;
                    sq_remove_front(s);
                    if (mg_n) {
                        int64_t g;
                        for (g = 0; g < mg_n; g++) {
                            d_mra[mg_q[g]] = now;
                            d_fl[mg_q[g]] &= ~FL_MGATED;
                        }
                        mg_n = 0;
                    }
                }
                cls = OP_DEST[op];
#if F_VP
                if (cls >= 0) {
                    int32_t prev_vp, prev_phys;
                    if (!(d_fl[s] & FL_RES)) {
                        g_rc = 2;
                        goto bail;
                    }
                    res_reg[cls]--;
                    res_used[cls]--;
                    if (pend_h[cls] < pend_t[cls]) {
                        int32_t nxt = pend_q[cls][pend_h[cls]++];
                        d_fl[nxt] |= FL_RES;
                        res_reg[cls]++;
                        if (d_dphys[nxt] >= 0)
                            res_used[cls]++;
                    }
                    prev_vp = d_prev[s];
                    prev_phys = pmt[cls][prev_vp];
                    if (prev_phys < 0) {
                        g_rc = 2;
                        goto bail;
                    }
                    pmt[cls][prev_vp] = -1;
                    pool_release(&pool_phys[cls], prev_phys);
                    pool_release(&pool_vp[cls], prev_vp);
                }
#else
                if (cls >= 0)
                    pool_release(&pool_phys[cls], d_prev[s]);
#endif
                if (g_rc)
                    goto bail;
                rob_h = (rob_h + 1) % (ROB_SIZE + 1);
                rob_n--;
                committed++;
                budget--;
            }
            if (committed != before)
                last_commit = now;
        }
        if (g_rc)
            goto bail;

        /* ---- memory: loads attempt the cache ------------------------ */
        if (pm_n) {
            int64_t sp_n = 0;
            int32_t blocking = sq_oldest_unknown();
            while (pm_n) {
                int32_t s = h32_pop(pm_q, &pm_n);
                int64_t done;
                if (blocking >= 0 && s > blocking) {
                    int64_t waits = d_mra[s] > now ? 0 : 1, j;
                    for (j = 0; j < pm_n; j++)
                        if (d_mra[pm_q[j]] <= now)
                            waits++;
                    sq_waits += waits;
                    sp_q[sp_n++] = s;
                    qsort(pm_q, (size_t)pm_n, 4, cmp_i32);
                    memcpy(sp_q + sp_n, pm_q, (size_t)pm_n * 4);
                    sp_n += pm_n;
                    pm_n = 0;
                    break;
                }
                if (d_mra[s] > now) {
                    sp_q[sp_n++] = s;
                    continue;
                }
                done = try_load(s, r_addr[s], now);
                if (done < 0) {
                    if (last_refusal == 3) {
                        int64_t gate = mshr_next_fill(now);
                        if (gate >= 0 && gate > now) {
                            d_mra[s] = gate;
                            if (!(d_fl[s] & FL_MGATED)) {
                                d_fl[s] |= FL_MGATED;
                                mg_q[mg_n++] = s;
                            }
                        }
                    }
                    sp_q[sp_n++] = s;
                    continue;
                }
                ev_push(done, s);
            }
            memcpy(pm_q, sp_q, (size_t)sp_n * 4);
            pm_n = sp_n;
        }
        if (g_rc)
            goto bail;

        /* ---- issue: oldest-first over the ready set ----------------- */
        if (rh_n) {
            int64_t budget = ISSUE_W, launched = 0, rt_n = 0;
            int fu_blocked = 0;
#if F_RF
            rf_start_read();
#else
            int64_t int_reads = READ_PORTS, fp_reads = READ_PORTS;
#endif
            while (budget && rh_n) {
                int32_t s = h32_pop(rh_q, &rh_n);
                int32_t op = R_OP(s);
                int kind, kind_bit, unit;
                int64_t u, nu;
                if (d_nb[s] > now) {
                    rt_q[rt_n++] = s;
                    continue;
                }
#if F_RETRY
                if (d_xcnt[s] > 0 && d_dphys[s] < 0
                        && !(d_fl[s] & FL_RES)) {
                    int rcls = OP_DEST[op];
                    if (rcls >= 0
                            && pool_phys[rcls].count
                               <= res_nrr[rcls] - res_used[rcls]) {
                        rt_q[rt_n++] = s;
                        continue;
                    }
                }
#endif
#if F_RF
                if (!rf_can_read(s)) {
                    rt_q[rt_n++] = s;
                    continue;
                }
#else
                if (d_ni[s] > int_reads || d_nf[s] > fp_reads) {
                    rt_q[rt_n++] = s;
                    continue;
                }
#endif
                kind = OP_FU[op];
                kind_bit = 1 << kind;
                if (fu_blocked & kind_bit) {
                    fu_stalls[kind]++;
                    rt_q[rt_n++] = s;
                    continue;
                }
                unit = -1;
                nu = FU_N[kind];
                for (u = 0; u < nu; u++)
                    if (fu_busy[kind][u] <= now
                            && fu_issued[kind][u] != now) {
                        unit = (int)u;
                        break;
                    }
                if (unit < 0) {
                    fu_stalls[kind]++;
                    fu_blocked |= kind_bit;
                    rt_q[rt_n++] = s;
                    continue;
                }
#if F_ISSUE
                {
                    int icls = OP_DEST[op];
                    if (icls >= 0 && d_dphys[s] < 0) {
                        if (!vp_try_alloc(s, icls)) {
                            ren_issue_blocks++;
                            s_issue_alloc++;
                            rt_q[rt_n++] = s;
                            continue;
                        }
                        if (g_rc)
                            goto bail;
                    }
                }
#endif
                fu_issued[kind][unit] = now;
                if (!OP_PIPE[op])
                    fu_busy[kind][unit] = now + OP_LAT[op];
                fu_issues[kind]++;
#if F_RF
                rf_claim_read(s);
#else
                int_reads -= d_ni[s];
                fp_reads -= d_nf[s];
#endif
                budget--;
                d_xcnt[s]++;
                launched++;
                if (OP_LOAD[op]) {
                    d_mra[s] = now + 1;
                    h32_push(pm_q, &pm_n, SH_CAP, s);
                } else if (OP_STORE[op] || OP_BR[op]) {
                    ev_push(now + 1, s);
                } else {
                    ev_push(now + OP_LAT[op], s);
                }
#if F_VP_WB
                if ((d_fl[s] & FL_INIQ) && OP_DEST[op] < 0) {
                    d_fl[s] &= ~FL_INIQ;
                    iq_count--;
                }
#else
                if (d_fl[s] & FL_INIQ) {
                    d_fl[s] &= ~FL_INIQ;
                    iq_count--;
                }
#endif
            }
            if (!rh_n) {
                memcpy(rh_q, rt_q, (size_t)rt_n * 4);
                rh_n = rt_n;
            } else {
                int64_t j;
                for (j = 0; j < rt_n; j++)
                    h32_push(rh_q, &rh_n, SH_CAP, rt_q[j]);
            }
            if (launched)
                s_executions += launched;
        }
        if (g_rc)
            goto bail;

        /* ---- rename/dispatch ---------------------------------------- */
        if (fb_n) {
            int64_t budget = RENAME_W;
            while (budget && fb_n) {
                int32_t s = fb_q[fb_h];
                int32_t op = R_OP(s);
                int cls = OP_DEST[op];
                int32_t src1, src2, t1 = -1, t2 = -1;
                int64_t need_int = 0, need_fp = 0, waiting = 0;
                if (rob_n >= ROB_SIZE) {
                    s_rob_full++;
                    break;
                }
                if (iq_count >= IQ_SIZE) {
                    s_iq_full++;
                    break;
                }
#if SQ_CAP
                if (OP_STORE[op] && sq_n >= SQ_CAP) {
                    s_sq_full++;
                    break;
                }
#endif
#if F_VP
                if (cls >= 0 && pool_vp[cls].count == 0) {
                    ren_vp_stalls++;
                    s_no_reg++;
                    break;
                }
#else
                if (cls >= 0 && pool_phys[cls].count == 0) {
                    ren_decode_stalls++;
                    s_no_reg++;
                    break;
                }
#endif
                fb_h = (fb_h + 1) % (FB_SIZE + 1);
                fb_n--;
                src1 = R_SRC1(s);
                src2 = R_SRC2(s);
                if (src1 >= 0) {
                    int c = src1 >> CLASS_SHIFT;
#if F_VP
                    t1 = (c << TAG_SHIFT) | gvp[c][src1 & INDEX_MASK];
#else
                    t1 = (c << TAG_SHIFT) | map_tab[c][src1 & INDEX_MASK];
#endif
                    if (src2 >= 0) {
                        c = src2 >> CLASS_SHIFT;
#if F_VP
                        t2 = (c << TAG_SHIFT)
                            | gvp[c][src2 & INDEX_MASK];
#else
                        t2 = (c << TAG_SHIFT)
                            | map_tab[c][src2 & INDEX_MASK];
#endif
                    }
                } else if (src2 >= 0) {
                    int c = src2 >> CLASS_SHIFT;
#if F_VP
                    t1 = (c << TAG_SHIFT) | gvp[c][src2 & INDEX_MASK];
#else
                    t1 = (c << TAG_SHIFT) | map_tab[c][src2 & INDEX_MASK];
#endif
                }
                if (cls < 0) {
                    d_dtag[s] = -1;
                } else {
                    int64_t idx = R_DEST(s) & INDEX_MASK;
#if F_VP
                    int32_t new_vp = pool_alloc(&pool_vp[cls]);
                    if (g_rc)
                        goto bail;
                    d_vpr[s] = new_vp;
                    d_prev[s] = gvp[cls][idx];
                    gvp[cls][idx] = new_vp;
                    gv[cls][idx] = 0;
                    d_dtag[s] = (cls << TAG_SHIFT) | new_vp;
#else
                    int32_t new_phys = pool_alloc(&pool_phys[cls]);
                    if (g_rc)
                        goto bail;
                    d_prev[s] = map_tab[cls][idx];
                    d_dphys[s] = new_phys;
                    map_tab[cls][idx] = new_phys;
                    d_dtag[s] = (cls << TAG_SHIFT) | new_phys;
#endif
                    ready_at[TIDX(d_dtag[s])] = FAR_FUTURE;
                }
#if F_VP
                if (cls >= 0) {
                    if (res_reg[cls] < res_nrr[cls]) {
                        d_fl[s] |= FL_RES;
                        res_reg[cls]++;
                    } else {
                        if (pend_t[cls] > g_n) {
                            g_rc = 2;
                            goto bail;
                        }
                        pend_q[cls][pend_t[cls]++] = s;
                    }
                }
#endif
                rob_q[(rob_h + rob_n) % (ROB_SIZE + 1)] = s;
                rob_n++;
                if (rob_n > s_peak_rob)
                    s_peak_rob = rob_n;
                d_fl[s] |= FL_INIQ;
                iq_count++;
                d_nb[s] = now + 1;
                budget--;
                if (OP_STORE[op]) {
                    /* wait_tags = src_tags[:1]; value tag = src_tags[1]
                     * (the Python side refuses stores missing a source) */
                    sq_insert(s);
                    if (g_rc)
                        goto bail;
                    if (ready_at[TIDX(t2)] <= now) {
                        d_dra[s] = now;
                        sq_set_data_ready(s, now);
                    } else {
                        wl_append(dw_head, dw_tail, TIDX(t2), s);
                    }
                    t2 = -1; /* only the base address is read at issue */
                }
                if (t1 >= 0) {
                    if (t1 >> TAG_SHIFT)
                        need_fp++;
                    else
                        need_int++;
                    if (ready_at[TIDX(t1)] > now) {
                        wl_append(w_head, w_tail, TIDX(t1), s);
                        waiting++;
                    }
                }
                if (t2 >= 0) {
                    if (t2 >> TAG_SHIFT)
                        need_fp++;
                    else
                        need_int++;
                    if (ready_at[TIDX(t2)] > now) {
                        wl_append(w_head, w_tail, TIDX(t2), s);
                        waiting++;
                    }
                }
                d_rt1[s] = t1;
                d_rt2[s] = t2;
                d_ni[s] = (uint8_t)need_int;
                d_nf[s] = (uint8_t)need_fp;
                d_wc[s] = (uint8_t)waiting;
                if (waiting == 0)
                    h32_push(rh_q, &rh_n, SH_CAP, s);
                if (g_rc)
                    goto bail;
            }
        }

        /* ---- fetch -------------------------------------------------- */
        if (!exhausted) {
            if (now < fetch_resume_at) {
                s_fetch_stall++;
            } else {
                int64_t budget = FETCH_W, room = FB_SIZE - fb_n;
                int64_t seq = next_seq, first_seq = seq;
                if (room < budget)
                    budget = room;
                while (budget) {
                    int32_t s;
                    if (seq >= n) {
                        exhausted = 1;
                        break;
                    }
                    s = (int32_t)seq;
                    seq++;
                    d_nb[s] = 0;
                    d_mra[s] = -1;
                    d_dra[s] = -1;
                    d_cat[s] = -1;
                    d_dtag[s] = -1;
                    d_dphys[s] = -1;
                    d_prev[s] = -1;
                    d_vpr[s] = -1;
                    d_rt1[s] = -1;
                    d_rt2[s] = -1;
                    d_xcnt[s] = 0;
                    d_fl[s] = 0;
                    d_ni[s] = d_nf[s] = d_wc[s] = 0;
                    fb_q[(fb_h + fb_n) % (FB_SIZE + 1)] = s;
                    fb_n++;
                    budget--;
                    if (OP_BR[R_OP(s)]) {
#if F_PERFECT
                        int predicted = R_TAKEN(s) != 0;
#else
                        int predicted =
                            bht[(R_PC(s) >> 2) & BHT_MASK] >= 2;
#endif
                        if (predicted != (R_TAKEN(s) != 0)) {
                            d_fl[s] |= FL_MISP;
                            fetch_resume_at = FAR_FUTURE;
                            break;
                        }
                        if (predicted)
                            break;
                    }
                }
                next_seq = seq;
                s_fetched += seq - first_seq;
            }
        }

        /* ---- occupancy integrals + cycle advance -------------------- */
        s_int_occ += NPR_INT - pool_phys[0].count;
        s_fp_occ += NPR_FP - pool_phys[1].count;
#if F_IDLE
        if (rh_n) {
            now += 1;
        } else {
            int64_t target = now + 1;
            do {
                int64_t next_mem = -1, commit_bound = -1,
                    fetch_bound = -1, best, horizon_bound, skipped, j;
                int due_mem = 0, fetch_dead, stall_kind = 0;
                if (exhausted && !fb_n && !rob_n)
                    break;
                for (j = 0; j < pm_n; j++) {
                    int64_t t = d_mra[pm_q[j]];
                    if (t <= now) {
                        due_mem = 1;
                        break;
                    }
                    if (next_mem < 0 || t < next_mem)
                        next_mem = t;
                }
                if (due_mem)
                    break;
                if (rob_n) {
                    int32_t h = rob_q[rob_h];
                    if (d_fl[h] & FL_DONE) {
                        commit_bound = d_cat[h] + COMMIT_DELAY;
                        if (commit_bound <= now)
                            break;
                    }
                }
                fetch_dead = exhausted;
                if (!fetch_dead && fb_n < FB_SIZE) {
                    if (fetch_resume_at <= target)
                        break;
                    fetch_bound = fetch_resume_at;
                }
                if (fb_n) {
                    int32_t h = fb_q[fb_h];
                    int hcls = OP_DEST[R_OP(h)];
                    if (rob_n >= ROB_SIZE) {
                        stall_kind = 1;
                    } else if (iq_count >= IQ_SIZE) {
                        stall_kind = 2;
                    }
#if SQ_CAP
                    else if (OP_STORE[R_OP(h)] && sq_n >= SQ_CAP) {
                        stall_kind = 3;
                    }
#endif
                    else if (hcls < 0) {
                        break;
                    }
#if F_VP
                    else if (pool_vp[hcls].count) {
                        break;
                    }
#else
                    else if (pool_phys[hcls].count) {
                        break;
                    }
#endif
                    else {
                        stall_kind = 4;
                    }
                }
                best = ev_n ? evt_t[0] : -1;
                if (next_mem >= 0 && (best < 0 || next_mem < best))
                    best = next_mem;
                if (commit_bound >= 0 && (best < 0 || commit_bound < best))
                    best = commit_bound;
                if (fetch_bound >= 0 && (best < 0 || fetch_bound < best))
                    best = fetch_bound;
                horizon_bound = last_commit + HORIZON + 1;
                if (best < 0 || best > horizon_bound)
                    best = horizon_bound;
                if (best <= target)
                    break;
                skipped = best - target;
                s_int_occ += skipped * (NPR_INT - pool_phys[0].count);
                s_fp_occ += skipped * (NPR_FP - pool_phys[1].count);
                if (!fetch_dead) {
                    int64_t stalled =
                        (best < fetch_resume_at
                         ? best - 1 : fetch_resume_at - 1) - now;
                    if (stalled > 0)
                        s_fetch_stall += stalled;
                }
                if (stall_kind == 1)
                    s_rob_full += skipped;
                else if (stall_kind == 2)
                    s_iq_full += skipped;
                else if (stall_kind == 3)
                    s_sq_full += skipped;
                else if (stall_kind == 4)
                    s_no_reg += skipped;
                idle_skips++;
                idle_cycles_skipped += skipped;
                target = best;
            } while (0);
            now = target;
        }
#else
        now += 1;
#endif
        if (now - last_commit > HORIZON) {
            deadlock_head = rob_n ? (int64_t)rob_q[rob_h] : -1;
            g_rc = 1;
            break;
        }
    }

bail:
    rc = g_rc;
    if (rc <= 1) {
        counters[K_NOW] = now;
        counters[K_EXHAUSTED] = exhausted;
        counters[K_COMMITTED] = committed;
        counters[K_FETCHED] = s_fetched;
        counters[K_EXECUTIONS] = s_executions;
        counters[K_SQUASHES] = s_squashes;
        counters[K_ISSUE_ALLOC_BLOCKS] = s_issue_alloc;
        counters[K_BRANCHES] = s_branches;
        counters[K_MISPREDICTS] = s_mispredicts;
        counters[K_STALL_ROB_FULL] = s_rob_full;
        counters[K_STALL_IQ_FULL] = s_iq_full;
        counters[K_STALL_NO_REG] = s_no_reg;
        counters[K_STALL_SQ_FULL] = s_sq_full;
        counters[K_FETCH_STALL_CYCLES] = s_fetch_stall;
        counters[K_WB_PORT_DEFERS] = s_wb_defers;
        counters[K_INT_REG_OCCUPANCY_SUM] = s_int_occ;
        counters[K_FP_REG_OCCUPANCY_SUM] = s_fp_occ;
        counters[K_PEAK_ROB] = s_peak_rob;
        counters[K_IQ_COUNT] = iq_count;
        counters[K_FETCH_RESUME_AT] = fetch_resume_at;
        counters[K_NEXT_SEQ] = next_seq;
        counters[K_LAST_COMMIT] = last_commit;
        counters[K_IDLE_SKIPS] = idle_skips;
        counters[K_IDLE_CYCLES_SKIPPED] = idle_cycles_skipped;
        counters[K_CACHE_LOADS] = c_loads;
        counters[K_CACHE_LOAD_MISSES] = c_load_misses;
        counters[K_CACHE_STORES] = c_stores;
        counters[K_CACHE_STORE_MISSES] = c_store_misses;
        counters[K_CACHE_MSHR_STALLS] = c_mshr_stalls;
        counters[K_SQ_FORWARDS] = sq_forwards;
        counters[K_SQ_WAITS] = sq_waits;
        counters[K_PORT_CONFLICTS] = port_conflicts;
        counters[K_MSHR_ALLOCATIONS] = m_allocs;
        counters[K_MSHR_MERGES] = m_merges;
        counters[K_MSHR_REJECTIONS] = m_rejects;
        counters[K_BUS_TRANSFERS] = bus_transfers;
        counters[K_BUS_BUSY_CYCLES] = bus_busy;
        counters[K_BUS_FREE_AT] = bus_free;
#if F_RF
        counters[K_RF_READ_STALLS] = rf_read_stalls;
        counters[K_RF_BANK_CONFLICTS] = rf_bank_conflicts;
#else
        counters[K_RF_READ_STALLS] = 0;
        counters[K_RF_BANK_CONFLICTS] = 0;
#endif
        counters[K_REN_DECODE_STALLS] = ren_decode_stalls;
        counters[K_REN_VP_STALLS] = ren_vp_stalls;
        counters[K_REN_SQUASHES] = ren_squashes;
        counters[K_REN_ISSUE_BLOCKS] = ren_issue_blocks;
        counters[K_FL_INT_ALLOCS] = pool_phys[0].allocations;
        counters[K_FL_INT_MIN_FREE] = pool_phys[0].min_free;
        counters[K_FL_FP_ALLOCS] = pool_phys[1].allocations;
        counters[K_FL_FP_MIN_FREE] = pool_phys[1].min_free;
#if F_VP
        counters[K_VP_INT_ALLOCS] = pool_vp[0].allocations;
        counters[K_VP_INT_MIN_FREE] = pool_vp[0].min_free;
        counters[K_VP_FP_ALLOCS] = pool_vp[1].allocations;
        counters[K_VP_FP_MIN_FREE] = pool_vp[1].min_free;
#else
        counters[K_VP_INT_ALLOCS] = 0;
        counters[K_VP_INT_MIN_FREE] = 0;
        counters[K_VP_FP_ALLOCS] = 0;
        counters[K_VP_FP_MIN_FREE] = 0;
#endif
        {
            int k;
            for (k = 0; k < 6; k++) {
                counters[K_FU_ISSUES_0 + k] = fu_issues[k];
                counters[K_FU_STALLS_0 + k] = fu_stalls[k];
            }
        }
        counters[K_DEADLOCK_HEAD] = deadlock_head;
    }
    free_all();
    return rc;
}
