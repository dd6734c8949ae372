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
	return f.temp("cm_mat *", fmt.Sprintf("%s(%s, %d, (int[]){%s}, %s, %s)",
		fn, arg, len(e.Dims), strings.Join(dims, ", "), elemEnum(resTy), cname(e.Fun)))
}

// cRuntimeExtras holds the runtime pieces beyond the core prelude:
// bounds-checked element accessors (the no-slice-elimination ablation
// path), matrix copy (the no-fusion ablation path), matrix printing,
// and the reference-counting extension's cells.
const cRuntimeExtras = `
/* ---- runtime extras ---- */
static double cm_at1(cm_mat *m, long i) {
    cm_spec s[1] = {cm_scalar(i)};
    return cm_index_scalar(m, 1, s);
}
static double cm_at2(cm_mat *m, long i, long j) {
    cm_spec s[2] = {cm_scalar(i), cm_scalar(j)};
    return cm_index_scalar(m, 2, s);
}
static double cm_at3(cm_mat *m, long i, long j, long k) {
    cm_spec s[3] = {cm_scalar(i), cm_scalar(j), cm_scalar(k)};
    return cm_index_scalar(m, 3, s);
}
static cm_mat *cm_copy(cm_mat *m) {
    cm_mat *out = cm_alloc(m->elem, m->rank, m->shape);
    if (m->f) memcpy(out->f, m->f, m->size * sizeof(float));
    if (m->i) memcpy(out->i, m->i, m->size * sizeof(long));
    if (m->b) memcpy(out->b, m->b, m->size);
    return out;
}
static void cm_printmat(cm_mat *m) {
    printf("Matrix %s [", m->elem == CM_FLOAT ? "float" : (m->elem == CM_INT ? "int" : "bool"));
    for (int d = 0; d < m->rank; d++) printf(d ? " %ld" : "%ld", m->shape[d]);
    printf("]");
    if (m->size <= 64) {
        printf(" {");
        for (long k = 0; k < m->size; k++) printf(k ? " %g" : "%g", cm_get(m, k));
        printf("}");
    }
    printf("\n");
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

/* reference-counting extension cells (§III-B surface syntax) */
typedef struct { int rc; int released; double v; } cm_cell;
static cm_cell *cm_cell_new(double v) {
    cm_cell *c = (cm_cell *)malloc(sizeof(cm_cell));
    c->rc = 1; c->released = 0; c->v = v;
    return c;
}
static void cm_cell_incref(cm_cell *c) {
    if (c) __atomic_add_fetch(&c->rc, 1, __ATOMIC_SEQ_CST);
}
static void cm_cell_decref(cm_cell *c) {
    /* cells survive an explicit rcrelease until the last automatic
       reference drops, so stale aliases fail loudly instead of
       reading freed memory */
    if (c && __atomic_sub_fetch(&c->rc, 1, __ATOMIC_SEQ_CST) == 0) free(c);
}
static double cm_cell_get(cm_cell *c) {
    if (!c) cm_die("rcget of null refcounted pointer");
    if (c->released) cm_die("rc: rcget of a released refcounted pointer");
    return c->v;
}
static void cm_cell_set(cm_cell *c, double v) {
    if (!c) cm_die("rcset of null refcounted pointer");
    if (c->released) cm_die("rc: rcset of a released refcounted pointer");
    c->v = v;
}
static void cm_cell_release(cm_cell *c) {
    if (!c) cm_die("rcrelease of null refcounted pointer");
    if (c->released) cm_die("rc: double release of a refcounted pointer");
    c->released = 1;
}
`
