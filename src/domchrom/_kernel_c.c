/*
 * Compiled twin of _kernel_py.
 *
 * Same contract, same vertex and class trial order, same node counts:
 * the one search, solve_fixed_k_dominator, evaluates the bitmask
 * predicate, the forced open and the class-packing rule documented in
 * _kernel_py.py, on uint64_t masks; with no vertex required it is a
 * proper-coloring search.  required lists each vertex once, in the
 * order the packing rule walks, which the solver sets.  adj must be outs
 * plus the in-neighbors of a digraph with no arc both ways, so that
 * adj[u] & ~outs[u] are the in-neighbors of u; the proper search passes
 * outs = adj with nothing required.
 * Any change here must be mirrored in the pure-Python module and vice
 * versa; the test suite compiles this file and asserts that the two
 * backends agree exactly.  Limited to 64 vertices by the mask width.
 *
 * Build in place (setup.py does the same through setuptools):
 *
 *   gcc -O2 -shared -fPIC $(python3-config --includes) \
 *       src/domchrom/_kernel_c.c \
 *       -o src/domchrom/_kernel_c$(python3-config --extension-suffix)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

#define MAX_N 64

static int
read_masks(PyObject *seq, int n, u64 *out)
{
    PyObject *fast = PySequence_Fast(seq, "masks must be a sequence");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) < n) {
        PyErr_SetString(PyExc_ValueError, "fewer masks than vertices");
        Py_DECREF(fast);
        return -1;
    }
    for (int i = 0; i < n; i++) {
        unsigned long long x =
            PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (x == (unsigned long long)-1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[i] = (u64)x;
    }
    Py_DECREF(fast);
    return 0;
}

static PyObject *
color_list(const int *color, int n)
{
    PyObject *list = PyList_New(n);
    if (list == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *c = PyLong_FromLong(color[i]);
        if (c == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, c);
    }
    return list;
}

/* Whether the vertices of left, taken in the given order (which lists
 * every vertex of left), meet no more than spare pairwise disjoint sets
 * outs[v] & above. */
static int
packs(u64 left, const int *order, const u64 *outs, u64 above, int spare)
{
    u64 taken = 0;
    for (const int *v = order; left; v++) {
        u64 bit = (u64)1 << *v;
        if (!(left & bit))
            continue;
        left &= ~bit;
        u64 reach = outs[*v] & above;
        if (!(reach & taken)) {
            if (!spare)
                return 0;
            spare--;
            taken |= reach;
        }
    }
    return 1;
}

static PyObject *
solve_fixed_k_dominator(PyObject *self, PyObject *args)
{
    int n, k;
    PyObject *adj_o, *outs_o, *required_o;
    u64 adj[MAX_N], outs[MAX_N], into[MAX_N], due_at[MAX_N];
    u64 class_masks[MAX_N], inside[MAX_N], saved[MAX_N];
    u64 cover_stack[MAX_N + 1];
    int color[MAX_N], trial[MAX_N], used_stack[MAX_N + 1];
    int order[MAX_N], count = 0;
    u64 req = 0;
    unsigned long long nodes = 0;

    if (!PyArg_ParseTuple(args, "iOOOi:solve_fixed_k_dominator", &n, &adj_o,
                          &outs_o, &required_o, &k))
        return NULL;
    if (n == 0)
        return Py_BuildValue("(Ni)", PyList_New(0), 0);
    if (n < 0 || n > MAX_N || k < 1 || k > MAX_N) {
        PyErr_SetString(PyExc_ValueError,
                        "compiled kernel handles 1 <= k and n <= 64");
        return NULL;
    }
    if (read_masks(adj_o, n, adj) < 0 || read_masks(outs_o, n, outs) < 0)
        return NULL;

    memset(due_at, 0, sizeof due_at);
    PyObject *required = PySequence_Fast(required_o, "required must be a sequence");
    if (required == NULL)
        return NULL;
    for (Py_ssize_t r = 0; r < PySequence_Fast_GET_SIZE(required); r++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(required, r));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(required);
            return NULL;
        }
        if (v < 0 || v >= n) {
            PyErr_SetString(PyExc_ValueError, "required vertex out of range");
            Py_DECREF(required);
            return NULL;
        }
        u64 bit = (u64)1 << v;
        u64 om = outs[v];
        if (req & bit)
            continue;
        req |= bit;
        order[count++] = (int)v;
        due_at[om ? 63 - __builtin_clzll(om) : 0] |= bit;
    }
    Py_DECREF(required);
    for (int i = 1; i < n; i++)
        due_at[i] |= due_at[i - 1];
    /* no arc runs both ways, so adj[u] & ~outs[u] are u's in-neighbors */
    for (int u = 0; u < n; u++)
        into[u] = adj[u] & ~outs[u] & req;

    memset(class_masks, 0, sizeof class_masks);
    memset(inside, 0, sizeof inside);
    used_stack[0] = 0;
    cover_stack[0] = 0;
    trial[0] = 0;

    int i = 0;
    for (;;) {
        int used = used_stack[i];
        int limit = used < k ? used : k - 1;
        u64 am = adj[i];
        u64 into_i = into[i];
        u64 due_open = due_at[i];
        u64 due_join = used == k ? req : due_open;
        u64 cover = cover_stack[i];
        u64 above = -((u64)2 << i);
        int placed = 0;
        int c = trial[i];
        /* forced open: no join can bring a due vertex into the cover */
        if (c < used && (due_join & ~cover))
            c = used;
        for (; c <= limit; c++) {
            u64 cm = class_masks[c];
            if (cm & am)
                continue;
            nodes++;
            u64 old = inside[c], grown, new_cover, due;
            int spare;
            if (c == used) {
                grown = req & into_i;
                new_cover = cover | grown;
                due = due_open;
                spare = k - used - 1;
            } else {
                grown = old & into_i;
                new_cover = cover;
                due = due_join;
                spare = k - used;
                /* the cover can only shrink: refute on the old one
                 * first, and recompute it only when it may change */
                if (grown != old && !(due & ~cover)) {
                    inside[c] = grown;
                    new_cover = 0;
                    for (int j = 0; j < used; j++)
                        new_cover |= inside[j];
                }
            }
            u64 left = req & ~new_cover;
            if (!(due & left) && (__builtin_popcountll(left) <= spare ||
                                  packs(left, order, outs, above, spare))) {
                class_masks[c] = cm | ((u64)1 << i);
                inside[c] = grown;
                saved[i] = old;
                color[i] = c;
                trial[i] = c + 1;
                used_stack[i + 1] = c == used ? used + 1 : used;
                cover_stack[i + 1] = new_cover;
                placed = 1;
                break;
            }
            inside[c] = old;
        }
        if (placed) {
            if (++i == n) {
                PyObject *list = color_list(color, n);
                return list == NULL ? NULL : Py_BuildValue("(NK)", list, nodes);
            }
            trial[i] = 0;
            continue;
        }
        if (--i < 0)
            return Py_BuildValue("(OK)", Py_None, nodes);
        c = color[i];
        class_masks[c] &= ~((u64)1 << i);
        inside[c] = saved[i];
    }
}

static PyMethodDef kernel_methods[] = {
    {"solve_fixed_k_dominator", solve_fixed_k_dominator, METH_VARARGS,
     "solve_fixed_k_dominator(n, adj, outs, required, k): (dominator "
     "coloring with at most k classes or None, nodes explored)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "domchrom._kernel_c",
    "Compiled twin of domchrom._kernel_py.",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__kernel_c(void)
{
    return PyModule_Create(&kernel_module);
}
