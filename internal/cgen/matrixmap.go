// matrixMap translation (§III-A.5): the mapped function is passed by
// pointer to the runtime's cm_matrixmap, which iterates the unmapped
// dimensions on the fork-join pool.
package cgen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

func (f *fnEmitter) emitMatrixMap(e *ast.MatrixMap) string {
	arg := f.expr(e.Arg)
	dims := make([]string, len(e.Dims))
	for i, d := range e.Dims {
		lit, ok := d.(*ast.IntLit)
		if !ok {
			panic(bug("matrixMap dimensions must be integer literals"))
		}
		dims[i] = fmt.Sprintf("%d", lit.Value)
	}
	resTy := f.g.info.TypeOf(e)
	fn := "cm_matrixmap"
	if e.General {
		fn = "cm_matrixmapg"
	}
	return f.owned(resTy, fmt.Sprintf("%s(%s, %d, (int[]){%s}, %s, %s)",
		fn, arg, len(e.Dims), strings.Join(dims, ", "), elemEnum(resTy.Elem), cname(e.Fun)))
}

// cRuntimeExtras holds the runtime pieces beyond the core prelude:
// matrix copy (the no-fusion ablation path), print, the generalized
// matrixMap, and the reference-counting extension's cells.
const cRuntimeExtras = `
/* ---- runtime extras ---- */
static cm_mat *cm_copy(cm_mat *m) {
    cm_mat *out = cm_alloc(m->elem, m->rank, m->shape);
    memcpy(out->p, m->p, m->size * cm_esize(m->elem));
    return out;
}
/* print, byte for byte as interp.PrintValue and Matrix.String: a float
   in the shortest digits that read back to it (Go's %g), an exponent
   when the decimal one is below -4 or at least 6 */
static void cm_fmt(char *s, int elem, const void *p) {
    if (elem == CM_INT) { sprintf(s, "%ld", *(const long *)p); return; }
    if (elem == CM_BOOL) { strcpy(s, *(const unsigned char *)p ? "true" : "false"); return; }
    double v = *(const double *)p;
    if (v - v != 0) { strcpy(s, v != v ? "NaN" : v > 0 ? "+Inf" : "-Inf"); return; }
    int prec = 1;
    while (sprintf(s, "%.*e", prec - 1, v), prec < 17 && strtod(s, 0) != v) prec++;
    int e = atoi(strchr(s, 'e') + 1);
    if (e >= -4 && e < 6) sprintf(s, "%.*f", prec - 1 - e > 0 ? prec - 1 - e : 0, v);
}
static void cm_print(int elem, const void *p) {
    char s[32];
    cm_fmt(s, elem, p);
    puts(s);
}
static void cm_printm(cm_mat *m) {
    static const char *names[] = {"float", "int", "bool"};
    char s[32];
    flockfile(stdout);
    printf("Matrix %s [", names[m->elem]);
    for (int d = 0; d < m->rank; d++) printf(d ? " %ld" : "%ld", m->shape[d]);
    if (m->size > 64) printf("] (%ld elements)\n", m->size);
    else {
        printf("] [");
        for (long k = 0; k < m->size; k++) {
            cm_fmt(s, m->elem, (char *)m->p + k * cm_esize(m->elem));
            printf(k ? " %s" : "%s", s);
        }
        printf("]\n");
    }
    funlockfile(stdout);
}
/* generalized matrixMap (§III-A.5's "being developed" form): the
 * mapped function may change the mapped dimensions' sizes; the output
 * shape is discovered from the first application and all applications
 * must agree. */
typedef struct {
    cm_mat *in, *out;
    int ndims; const int *dims;
    cm_map_fn fn;
    long itersize;
    long start;
} cm_mmg_args;

static void cm_mmg_specs(cm_mat *in, int ndims, const int *dims, long it, cm_spec *specs) {
    int mapped[CM_MAX_RANK] = {0};
    for (int k = 0; k < ndims; k++) mapped[dims[k]] = 1;
    long rem = it;
    for (int d = in->rank - 1; d >= 0; d--) {
        if (mapped[d]) { specs[d] = cm_allspec(); continue; }
        specs[d] = cm_scalar(rem % in->shape[d]);
        rem /= in->shape[d];
    }
}

static void cm_mmg_one(cm_mmg_args *a, long it) {
    cm_spec specs[CM_MAX_RANK];
    cm_mmg_specs(a->in, a->ndims, a->dims, it, specs);
    cm_mat *sub = cm_index(a->in, a->in->rank, specs);
    cm_mat *res = a->fn(sub);
    for (int k = 0; k < a->ndims; k++)
        if (res->shape[k] != a->out->shape[a->dims[k]])
            cm_die("matrixMapG applications disagree on result size");
    cm_store(a->out, a->in->rank, specs, res);
    cm_decref(sub); cm_decref(res);
}

static void cm_mmg_work(void *p, int worker, int nworkers) {
    cm_mmg_args *a = (cm_mmg_args *)p;
    long span = a->itersize - a->start;
    long chunk = (span + nworkers - 1) / nworkers;
    long lo = a->start + (long)worker * chunk, hi = lo + chunk;
    if (hi > a->itersize) hi = a->itersize;
    for (long it = lo; it < hi; it++) cm_mmg_one(a, it);
}

static cm_mat *cm_matrixmapg(cm_mat *in, int ndims, const int *dims, int outElem, cm_map_fn fn) {
    if (!in) cm_die("matrixMapG of unassigned matrix");
    int mapped[CM_MAX_RANK] = {0};
    for (int k = 0; k < ndims; k++) mapped[dims[k]] = 1;
    long itersize = 1;
    for (int d = 0; d < in->rank; d++) if (!mapped[d]) itersize *= in->shape[d];
    if (itersize == 0) return cm_alloc(outElem, in->rank, in->shape);
    /* discover the output shape from application 0 */
    cm_spec specs[CM_MAX_RANK];
    cm_mmg_specs(in, ndims, dims, 0, specs);
    cm_mat *sub0 = cm_index(in, in->rank, specs);
    cm_mat *res0 = fn(sub0);
    if (res0->rank != ndims) cm_die("matrixMapG function returned wrong rank");
    long outshape[CM_MAX_RANK];
    for (int d = 0; d < in->rank; d++) outshape[d] = in->shape[d];
    for (int k = 0; k < ndims; k++) outshape[dims[k]] = res0->shape[k];
    cm_mat *out = cm_alloc(outElem, in->rank, outshape);
    cm_store(out, in->rank, specs, res0);
    cm_decref(sub0); cm_decref(res0);
    cm_mmg_args args = {in, out, ndims, dims, fn, itersize, 1};
    cm_pool_run(cm_mmg_work, &args);
    return out;
}

/* reference-counting extension cells (§III-B surface syntax): a
   count, a released mark and the release of what the value holds,
   then the value, of any type; the cell holds its own reference to a
   matrix or cell in its value */
typedef struct { int rc; int released; void (*drop)(void *); } cm_cell;
static cm_cell *cm_cell_new(size_t size, void (*drop)(void *)) {
    cm_cell *c = (cm_cell *)calloc(1, sizeof(cm_cell) + size);
    if (!c) cm_die("out of memory");
    c->rc = 1; c->drop = drop;
    return c;
}
static void cm_cell_incref(cm_cell *c) {
    if (c) __atomic_add_fetch(&c->rc, 1, __ATOMIC_SEQ_CST);
}
static void cm_cell_decref(cm_cell *c) {
    /* cells survive an explicit rcrelease until the last automatic
       reference drops, so stale aliases fail loudly instead of
       reading freed memory; the value's references go with the cell */
    if (c && __atomic_sub_fetch(&c->rc, 1, __ATOMIC_SEQ_CST) == 0) {
        if (c->drop) c->drop(c + 1);
        free(c);
    }
}
/* the value of a live cell: *(T *)cm_cell_val(c) */
static void *cm_cell_val(cm_cell *c) {
    if (!c) cm_die("null refcounted pointer");
    if (c->released) cm_die("rc: use of a released refcounted pointer");
    return c + 1;
}
static void cm_cell_release(cm_cell *c) {
    if (!c) cm_die("rcrelease of null refcounted pointer");
    if (c->released) cm_die("rc: double release of a refcounted pointer");
    c->released = 1;
}
`
