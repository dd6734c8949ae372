// The C runtime prelude emitted at the top of every translation unit.
// It implements, in plain C, the substrate the paper's generated code
// relies on: the reference-counted matrix representation of §III-B
// (a count attached to every allocation), MATLAB-style index
// evaluation, overloaded elementwise arithmetic, and the enhanced
// fork-join pthread pool of §III-C — threads spawned once at startup
// that spin until the main thread releases work and then return to the
// spin lock through a stop barrier.
package cgen

// cRuntime is the prelude text. It is self-contained C99 + pthreads.
const cRuntime = `/* ---- CMINUS matrix runtime (generated; do not edit) ---- */
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <pthread.h>
#include <sched.h>

#define CM_MAX_RANK 8

enum { CM_FLOAT = 0, CM_INT = 1, CM_BOOL = 2 };
enum { CM_ADD, CM_SUB, CM_MUL, CM_DIV, CM_MOD,
       CM_EQ, CM_NE, CM_LT, CM_LE, CM_GT, CM_GE, CM_AND, CM_OR };

typedef struct cm_mat {
    int rc;                 /* the 4-byte reference count of the paper */
    int elem;
    int rank;
    long shape[CM_MAX_RANK];
    long strides[CM_MAX_RANK];
    long size;
    union { double *f; long *i; unsigned char *b; void *p; };
} cm_mat;

static void cm_die(const char *msg) {
    fprintf(stderr, "runtime error: %s\n", msg);
    exit(2);
}

/* A trap the VM reports in the same words: an index out of range, an
   integer division by zero. It prints the VM's message and exits 1, as
   cmrun does for it. */
static void cm_trap(const char *fmt, ...) {
    va_list ap;
    va_start(ap, fmt);
    fputs("runtime error: ", stderr);
    vfprintf(stderr, fmt, ap);
    fputc('\n', stderr);
    va_end(ap);
    exit(1);
}

/* ---- the value model (DESIGN §2.4): float is a double and int a long
   that wraps in two's complement, as in the VM ---- */
static long cm_iadd(long a, long b) { return (long)((unsigned long)a + (unsigned long)b); }
static long cm_isub(long a, long b) { return (long)((unsigned long)a - (unsigned long)b); }
static long cm_imul(long a, long b) { return (long)((unsigned long)a * (unsigned long)b); }
static long cm_idiv(long a, long b) {
    if (!b) cm_trap("matrix: integer division by zero");
    return b == -1 ? cm_isub(0, a) : a / b;
}
static long cm_imod(long a, long b) {
    if (!b) cm_trap("matrix: integer modulo by zero");
    return b == -1 ? 0 : a % b;
}
/* (int)x: truncation, and the one out-of-range answer amd64 gives */
static long cm_ftoi(double x) {
    return x >= -9223372036854775808.0 && x < 9223372036854775808.0 ? (long)x : (long)(1UL << 63);
}

static size_t cm_esize(int elem) { return elem == CM_FLOAT ? sizeof(double) : elem == CM_INT ? sizeof(long) : 1; }

static cm_mat *cm_alloc(int elem, int rank, const long *shape) {
    cm_mat *m = (cm_mat *)calloc(1, sizeof(cm_mat));
    if (!m) cm_die("out of memory");
    m->rc = 1; m->elem = elem; m->rank = rank;
    long size = 1;
    for (int d = 0; d < rank; d++) { m->shape[d] = shape[d]; size *= shape[d]; }
    long acc = 1;
    for (int d = rank - 1; d >= 0; d--) { m->strides[d] = acc; acc *= shape[d]; }
    m->size = size;
    m->p = calloc(size ? size : 1, cm_esize(elem));
    if (!m->p) cm_die("out of memory");
    return m;
}

static void cm_incref(cm_mat *m) {
    if (m) __atomic_add_fetch(&m->rc, 1, __ATOMIC_SEQ_CST);
}
static void cm_decref(cm_mat *m) {
    if (!m) return;
    if (__atomic_sub_fetch(&m->rc, 1, __ATOMIC_SEQ_CST) == 0) {
        free(m->p); free(m);
    }
}

static long cm_dim(cm_mat *m, long d) {
    if (!m || d < 0 || d >= m->rank) cm_die("dimSize out of range");
    return m->shape[d];
}

/* The offset of the cell at n scalar indices, each checked against its
   dimension: every scalar load and store of any rank goes through it,
   as m->f[cm_off(m, i, j)]. */
static long cm_offn(const cm_mat *m, int n, const long *idx) {
    if (!m) cm_die("index of unassigned matrix");
    if (n != m->rank) cm_die("wrong number of indices");
    long off = 0;
    for (int d = 0; d < n; d++) {
        if (idx[d] < 0 || idx[d] >= m->shape[d])
            cm_trap("matrix: index %ld out of range [0,%ld) in dimension %d", idx[d], m->shape[d], d);
        off += idx[d] * m->strides[d];
    }
    return off;
}
#define cm_off(m, ...) cm_offn(m, sizeof((long[]){__VA_ARGS__}) / sizeof(long), (long[]){__VA_ARGS__})

/* One index of a -O load, i, checked against its hoisted extent n as
   cm_off checks it in dimension d (a matrix not yet assigned has extent
   0). */
static void cm_chk(long i, long n, int d) {
    if (i < 0 || i >= n) cm_trap("matrix: index %ld out of range [0,%ld) in dimension %d", i, n, d);
}

/* dst[doff] = src[soff]; a float cell takes an int one converted, the
   one promotion a store makes */
static void cm_move(cm_mat *dst, long doff, const cm_mat *src, long soff) {
    switch (dst->elem) {
    case CM_FLOAT: dst->f[doff] = src->elem == CM_INT ? (double)src->i[soff] : src->f[soff]; break;
    case CM_INT:   dst->i[doff] = src->i[soff]; break;
    default:       dst->b[doff] = src->b[soff]; break;
    }
}

/* Cache-blocked 2-D transpose fast path: dst[i][j] = src[j][i]. The
   compiler emits this for genarray bodies that are exactly m[j, i]
   over the full output shape, replacing the strided loop nest whose
   inner stride would be the source row length. */
#define CM_TBLK 32
#define CM_TRANS_LOOP(D, S) \
    for (long ii = 0; ii < r; ii += CM_TBLK) \
        for (long jj = 0; jj < c; jj += CM_TBLK) { \
            long ih = ii + CM_TBLK < r ? ii + CM_TBLK : r; \
            long jh = jj + CM_TBLK < c ? jj + CM_TBLK : c; \
            for (long i = ii; i < ih; i++) \
                for (long j = jj; j < jh; j++) \
                    D[i * c + j] = S[j * ld + i]; \
        }
static void cm_transpose(cm_mat *dst, const cm_mat *src) {
    if (!dst || !src) cm_die("transpose kernel on null matrix");
    long r = dst->shape[0], c = dst->shape[1], ld = src->shape[1];
    if (dst->rank != 2 || src->rank != 2
        || dst->elem != src->elem || src->shape[0] < c || ld < r)
        cm_die("transpose kernel shape mismatch");
    switch (dst->elem) {
    case CM_FLOAT: CM_TRANS_LOOP(dst->f, src->f); break;
    case CM_INT:   CM_TRANS_LOOP(dst->i, src->i); break;
    default:       CM_TRANS_LOOP(dst->b, src->b); break;
    }
}

/* ---- index specs (scalar / inclusive range / ':' / logical mask) ---- */
typedef struct { int kind; long i, lo, hi; cm_mat *mask; } cm_spec;
enum { CM_SPEC_SCALAR, CM_SPEC_RANGE, CM_SPEC_ALL, CM_SPEC_MASK };
static cm_spec cm_scalar(long i) { cm_spec s = {CM_SPEC_SCALAR, i, 0, 0, 0}; return s; }
static cm_spec cm_span(long lo, long hi) { cm_spec s = {CM_SPEC_RANGE, 0, lo, hi, 0}; return s; }
static cm_spec cm_allspec(void) { cm_spec s = {CM_SPEC_ALL, 0, 0, 0, 0}; return s; }
static cm_spec cm_maskspec(cm_mat *m) { cm_spec s = {CM_SPEC_MASK, 0, 0, 0, m}; return s; }

typedef struct { long n; long *list; long scalar; } cm_sel1;

static void cm_resolve1(cm_spec sp, long dimsize, int d, cm_sel1 *out) {
    out->list = 0; out->n = -1;
    switch (sp.kind) {
    case CM_SPEC_SCALAR:
        if (sp.i < 0 || sp.i >= dimsize)
            cm_trap("matrix: index %ld out of range [0,%ld) in dimension %d", sp.i, dimsize, d);
        out->scalar = sp.i; return;
    case CM_SPEC_RANGE: {
        if (sp.lo < 0 || sp.hi >= dimsize || sp.lo > sp.hi)
            cm_trap("matrix: range %ld:%ld invalid for dimension %d of size %ld", sp.lo, sp.hi, d, dimsize);
        out->n = sp.hi - sp.lo + 1;
        out->list = (long *)malloc(out->n * sizeof(long));
        for (long k = 0; k < out->n; k++) out->list[k] = sp.lo + k;
        return; }
    case CM_SPEC_ALL: {
        out->n = dimsize;
        out->list = (long *)malloc((dimsize ? dimsize : 1) * sizeof(long));
        for (long k = 0; k < dimsize; k++) out->list[k] = k;
        return; }
    default: {
        cm_mat *mk = sp.mask;
        if (!mk || mk->elem != CM_BOOL || mk->rank != 1)
            cm_trap("matrix: logical index for dimension %d must be a rank-1 bool matrix", d);
        if (mk->size != dimsize)
            cm_trap("matrix: logical index length %ld does not match dimension %d of size %ld", mk->size, d, dimsize);
        long n = 0;
        for (long k = 0; k < dimsize; k++) if (mk->b[k]) n++;
        out->n = n;
        out->list = (long *)malloc((n ? n : 1) * sizeof(long));
        n = 0;
        for (long k = 0; k < dimsize; k++) if (mk->b[k]) out->list[n++] = k;
        return; }
    }
}

/* visit the cross product of selections; returns number of cells */
static void cm_sel_free(cm_sel1 *sel, int rank) {
    for (int d = 0; d < rank; d++) free(sel[d].list);
}

static cm_mat *cm_index(cm_mat *m, int n, cm_spec *specs) {
    if (!m) cm_die("index of unassigned matrix");
    if (n != m->rank) cm_die("wrong number of indices");
    cm_sel1 sel[CM_MAX_RANK];
    long outshape[CM_MAX_RANK]; int outrank = 0;
    for (int d = 0; d < n; d++) {
        cm_resolve1(specs[d], m->shape[d], d, &sel[d]);
        if (sel[d].n >= 0) outshape[outrank++] = sel[d].n;
    }
    if (outrank == 0) cm_die("cm_index used for all-scalar selection");
    cm_mat *out = cm_alloc(m->elem, outrank, outshape);
    long counters[CM_MAX_RANK] = {0};
    for (long cell = 0; cell < out->size; cell++) {
        long src = 0; int kd = 0;
        for (int d = 0; d < n; d++) {
            long pos = (sel[d].n >= 0) ? sel[d].list[counters[kd++]] : sel[d].scalar;
            src += pos * m->strides[d];
        }
        cm_move(out, cell, m, src);
        for (int k = outrank - 1; k >= 0; k--) {
            if (++counters[k] < outshape[k]) break;
            counters[k] = 0;
        }
    }
    cm_sel_free(sel, n);
    return out;
}

static void cm_store(cm_mat *m, int n, cm_spec *specs, cm_mat *src) {
    if (!m) cm_die("store into unassigned matrix");
    cm_sel1 sel[CM_MAX_RANK];
    long outshape[CM_MAX_RANK]; int outrank = 0; long total = 1;
    for (int d = 0; d < n; d++) {
        cm_resolve1(specs[d], m->shape[d], d, &sel[d]);
        if (sel[d].n >= 0) { outshape[outrank++] = sel[d].n; total *= sel[d].n; }
    }
    if (src->size != total) cm_die("store size mismatch");
    long counters[CM_MAX_RANK] = {0};
    for (long cell = 0; cell < total; cell++) {
        long dst = 0; int kd = 0;
        for (int d = 0; d < n; d++) {
            long pos = (sel[d].n >= 0) ? sel[d].list[counters[kd++]] : sel[d].scalar;
            dst += pos * m->strides[d];
        }
        cm_move(m, dst, src, cell);
        for (int k = outrank - 1; k >= 0; k--) {
            if (++counters[k] < outshape[k]) break;
            counters[k] = 0;
        }
    }
    cm_sel_free(sel, n);
}

/* ---- overloaded arithmetic (§III-A.2) ----
   Each operand is read in its own type: an int cell is converted only
   where it meets a float, and int arithmetic wraps, as the VM's. A
   broadcast scalar is a rank-0 operand read at offset 0. */
static int cm_result_elem(int op, int ea, int eb) {
    if (op >= CM_EQ) return CM_BOOL;
    if (ea == CM_FLOAT || eb == CM_FLOAT) return CM_FLOAT;
    return CM_INT;
}

/* an operand's cell in a float operation: an int one promoted, as the VM promotes it */
#define CM_FLT(m, k) ((m)->elem == CM_FLOAT ? (m)->f[k] : (double)(m)->i[k])
#define CM_CMP(X, Y) \
    switch (op) { \
    case CM_EQ: for (long k = 0; k < n; k++) d[k] = X == Y; break; \
    case CM_NE: for (long k = 0; k < n; k++) d[k] = X != Y; break; \
    case CM_LT: for (long k = 0; k < n; k++) d[k] = X < Y; break; \
    case CM_LE: for (long k = 0; k < n; k++) d[k] = X <= Y; break; \
    case CM_GT: for (long k = 0; k < n; k++) d[k] = X > Y; break; \
    default:    for (long k = 0; k < n; k++) d[k] = X >= Y; break; \
    }
#define CM_ARITH(X, Y) \
    switch (op) { \
    case CM_ADD: for (long k = 0; k < n; k++) d[k] = X + Y; break; \
    case CM_SUB: for (long k = 0; k < n; k++) d[k] = X - Y; break; \
    case CM_MUL: for (long k = 0; k < n; k++) d[k] = X * Y; break; \
    default:     for (long k = 0; k < n; k++) d[k] = X / Y; break; \
    }
static cm_mat *cm_ew(int op, cm_mat *a, cm_mat *b) {
    if (!a || !b) cm_die("elementwise op on unassigned matrix");
    if (a->rank && b->rank) {
        if (a->rank != b->rank) cm_die("shape mismatch");
        for (int d = 0; d < a->rank; d++)
            if (a->shape[d] != b->shape[d]) cm_die("shape mismatch");
    }
    const cm_mat *sh = a->rank ? a : b;
    cm_mat *out = cm_alloc(cm_result_elem(op, a->elem, b->elem), sh->rank, sh->shape);
    long n = out->size, sa = a->rank != 0, sb = b->rank != 0;
    if (op >= CM_AND) {
        unsigned char *d = out->b;
        for (long k = 0; k < n; k++)
            d[k] = op == CM_AND ? a->b[k * sa] && b->b[k * sb] : a->b[k * sa] || b->b[k * sb];
    } else if (op >= CM_EQ) {
        unsigned char *d = out->b;
        if (a->elem == CM_FLOAT || b->elem == CM_FLOAT) CM_CMP(CM_FLT(a, k * sa), CM_FLT(b, k * sb))
        else if (a->elem == CM_INT) CM_CMP(a->i[k * sa], b->i[k * sb])
        else CM_CMP(a->b[k * sa], b->b[k * sb])
    } else if (a->elem == CM_FLOAT && b->elem == CM_FLOAT) {
        /* typed fast paths: the operator chosen once, outside the loop */
        const double *x = a->f, *y = b->f; double *d = out->f;
        CM_ARITH(x[k * sa], y[k * sb])
    } else if (a->elem == CM_INT && b->elem == CM_INT && op <= CM_MUL) {
        const long *x = a->i, *y = b->i; long *d = out->i;
        CM_ARITH((unsigned long)x[k * sa], (unsigned long)y[k * sb]) /* wraps; no division here */
    } else if (out->elem == CM_FLOAT) {
        double *d = out->f;
        for (long k = 0; k < n; k++) {
            double x = CM_FLT(a, k * sa), y = CM_FLT(b, k * sb);
            d[k] = op == CM_ADD ? x + y : op == CM_SUB ? x - y : op == CM_MUL ? x * y : x / y;
        }
    } else {
        long *d = out->i;
        for (long k = 0; k < n; k++) {
            long x = a->i[k * sa], y = b->i[k * sb];
            d[k] = op == CM_ADD ? cm_iadd(x, y) : op == CM_SUB ? cm_isub(x, y) : op == CM_MUL ? cm_imul(x, y)
                 : op == CM_DIV ? cm_idiv(x, y) : cm_imod(x, y);
        }
    }
    return out;
}

/* a op s (left) or s op a: s is the scalar of type elem, in i or f */
static cm_mat *cm_bc(int op, cm_mat *a, int elem, long i, double f, int left) {
    unsigned char b = i != 0;
    cm_mat s = {.elem = elem, .size = 1};
    s.p = elem == CM_FLOAT ? (void *)&f : elem == CM_INT ? (void *)&i : (void *)&b;
    if (!a) cm_die("broadcast op on unassigned matrix");
    return left ? cm_ew(op, a, &s) : cm_ew(op, &s, a);
}

static cm_mat *cm_matmul(cm_mat *a, cm_mat *b) {
    if (!a || !b || a->rank != 2 || b->rank != 2 || a->shape[1] != b->shape[0])
        cm_die("bad matmul operands");
    long m = a->shape[0], kk = a->shape[1], n = b->shape[1];
    long shp[2] = {m, n};
    cm_mat *out = cm_alloc(cm_result_elem(CM_MUL, a->elem, b->elem), 2, shp);
    /* i-k-j loop order: the inner loop walks one row of b and the
       output row sequentially (unit stride); k-blocked so a block of
       b's rows stays cache-resident across the output rows that stream
       it. Each cell still sums its products in ascending k from 0, as
       the VM's kernel does. */
    const long BK = 128;
    for (long k0 = 0; k0 < kk; k0 += BK)
        for (long i = 0; i < m; i++)
            for (long x = k0; x < kk && x < k0 + BK; x++) {
                if (out->elem == CM_INT) {
                    long av = a->i[i * kk + x], *row = out->i + i * n;
                    for (long j = 0; j < n; j++) row[j] = cm_iadd(row[j], cm_imul(av, b->i[x * n + j]));
                } else {
                    double av = CM_FLT(a, i * kk + x), *row = out->f + i * n;
                    if (b->elem == CM_FLOAT)
                        for (long j = 0; j < n; j++) row[j] += av * b->f[x * n + j];
                    else
                        for (long j = 0; j < n; j++) row[j] += av * (double)b->i[x * n + j];
                }
            }
    return out;
}

static cm_mat *cm_unary(int neg, cm_mat *a) {
    if (!a) cm_die("unary op on unassigned matrix");
    cm_mat *out = cm_alloc(a->elem, a->rank, a->shape);
    for (long k = 0; k < a->size; k++)
        switch (a->elem) {
        case CM_FLOAT: out->f[k] = -a->f[k]; break;
        case CM_INT:   out->i[k] = cm_isub(0, a->i[k]); break;
        default:       out->b[k] = !a->b[k]; break;
        }
    return out;
}

static cm_mat *cm_rangevec(long lo, long hi) {
    long n = hi >= lo ? hi - lo + 1 : 0;
    long shp[1] = {n};
    cm_mat *out = cm_alloc(CM_INT, 1, shp);
    for (long k = 0; k < n; k++) out->i[k] = lo + k;
    return out;
}

/* ---- matrix file I/O (CMXM format, matching internal/matio): the
   file's float64/int64/bool8 cells are the matrix's own ---- */
static cm_mat *cm_read(const char *name) {
    FILE *fp = fopen(name, "rb");
    if (!fp) cm_die("readMatrix: cannot open file");
    char mg[4];
    long head[2];
    if (fread(mg, 1, 4, fp) != 4 || memcmp(mg, "CMXM", 4) != 0) cm_die("bad matrix file");
    if (fread(head, 8, 2, fp) != 2) cm_die("bad matrix header");
    long elem = head[0], rank = head[1];
    if (elem < CM_FLOAT || elem > CM_BOOL || rank < 1 || rank > CM_MAX_RANK) cm_die("bad matrix header");
    long shape[CM_MAX_RANK];
    if (fread(shape, 8, rank, fp) != (size_t)rank) cm_die("bad matrix shape");
    cm_mat *m = cm_alloc((int)elem, (int)rank, shape);
    if (fread(m->p, cm_esize(m->elem), m->size, fp) != (size_t)m->size) cm_die("short read");
    fclose(fp);
    return m;
}

static void cm_write(const char *name, cm_mat *m) {
    FILE *fp = fopen(name, "wb");
    if (!fp) cm_die("writeMatrix: cannot open file");
    fwrite("CMXM", 1, 4, fp);
    long head[2] = {m->elem, m->rank};
    fwrite(head, 8, 2, fp);
    fwrite(m->shape, 8, m->rank, fp);
    fwrite(m->p, cm_esize(m->elem), m->size, fp);
    fclose(fp);
}

/* ---- enhanced fork-join pool (§III-C) ----
 * Threads are spawned once and "sent straight into a spin lock where
 * they sit idle until some parallel work is to be done"; releasing
 * them flips a generation counter, and each passes through the stop
 * barrier back into the spin lock. */
typedef void (*cm_work_fn)(void *arg, int worker, int nworkers);
/* Nested parallel constructs run sequentially inside a worker (only
 * the outermost construct is distributed, as in the paper): workers
 * mark themselves and cm_pool_run falls back to inline execution. */
static __thread int cm_in_worker = 0;
static struct {
    int n;
    volatile unsigned long gen;
    volatile long done;
    cm_work_fn fn;
    void *arg;
    int stop;                     /* written by cm_pool_shutdown, read by every worker */
    pthread_t tids[256];
} cm_pool;

static void *cm_pool_worker(void *p) {
    long id = (long)p;
    unsigned long last = 0;
    cm_in_worker = 1;
    for (;;) {
        while (__atomic_load_n(&cm_pool.gen, __ATOMIC_SEQ_CST) == last) {
            if (__atomic_load_n(&cm_pool.stop, __ATOMIC_SEQ_CST)) return 0;
            sched_yield();          /* spin lock with polite backoff */
        }
        last = __atomic_load_n(&cm_pool.gen, __ATOMIC_SEQ_CST);
        cm_pool.fn(cm_pool.arg, (int)id, cm_pool.n);
        __atomic_add_fetch(&cm_pool.done, 1, __ATOMIC_SEQ_CST); /* stop barrier */
    }
}

static void cm_pool_init(int n) {
    if (n > 256) n = 256;
    if (n < 1) n = 1;
    cm_pool.n = n;
    for (long w = 0; w < n; w++)
        pthread_create(&cm_pool.tids[w], 0, cm_pool_worker, (void *)w);
}

static void cm_pool_run(cm_work_fn fn, void *arg) {
    if (cm_pool.n <= 0 || cm_in_worker) { fn(arg, 0, 1); return; } /* sequential fallback */
    cm_pool.fn = fn; cm_pool.arg = arg;
    __atomic_store_n(&cm_pool.done, 0, __ATOMIC_SEQ_CST);
    __atomic_add_fetch(&cm_pool.gen, 1, __ATOMIC_SEQ_CST); /* release workers */
    while (__atomic_load_n(&cm_pool.done, __ATOMIC_SEQ_CST) < cm_pool.n)
        sched_yield();              /* main thread waits in the stop barrier */
}

static void cm_pool_shutdown(void) {
    if (cm_pool.n <= 0) return;
    __atomic_store_n(&cm_pool.stop, 1, __ATOMIC_SEQ_CST);
    for (int w = 0; w < cm_pool.n; w++) pthread_join(cm_pool.tids[w], 0);
    cm_pool.n = 0;
}

/* ---- matrixMap (§III-A.5): apply f over mapped dims, iterate the
 * rest in parallel on the pool ---- */
typedef cm_mat *(*cm_map_fn)(cm_mat *);
typedef struct {
    cm_mat *in, *out;
    int ndims; const int *dims;
    cm_map_fn fn;
    long itersize;
} cm_mm_args;

static void cm_mm_work(void *p, int worker, int nworkers) {
    cm_mm_args *a = (cm_mm_args *)p;
    long chunk = (a->itersize + nworkers - 1) / nworkers;
    long lo = (long)worker * chunk, hi = lo + chunk;
    if (hi > a->itersize) hi = a->itersize;
    int mapped[CM_MAX_RANK] = {0};
    for (int k = 0; k < a->ndims; k++) mapped[a->dims[k]] = 1;
    for (long it = lo; it < hi; it++) {
        cm_spec specs[CM_MAX_RANK];
        long rem = it;
        for (int d = a->in->rank - 1; d >= 0; d--) {
            if (mapped[d]) { specs[d] = cm_allspec(); continue; }
            specs[d] = cm_scalar(rem % a->in->shape[d]);
            rem /= a->in->shape[d];
        }
        cm_mat *sub = cm_index(a->in, a->in->rank, specs);
        cm_mat *res = a->fn(sub);
        cm_store(a->out, a->in->rank, specs, res);
        cm_decref(sub); cm_decref(res);
    }
}

static cm_mat *cm_matrixmap(cm_mat *in, int ndims, const int *dims, int outElem, cm_map_fn fn) {
    if (!in) cm_die("matrixMap of unassigned matrix");
    cm_mat *out = cm_alloc(outElem, in->rank, in->shape);
    int mapped[CM_MAX_RANK] = {0};
    for (int k = 0; k < ndims; k++) mapped[dims[k]] = 1;
    long itersize = 1;
    for (int d = 0; d < in->rank; d++) if (!mapped[d]) itersize *= in->shape[d];
    cm_mm_args args = {in, out, ndims, dims, fn, itersize};
    cm_pool_run(cm_mm_work, &args);
    return out;
}
/* ---- end of runtime ---- */
`
