/* Maximum flow and residual search on the s-t networks of graphprox.maxflow.
 *
 * graphprox.maxflow compiles this file on first use (plain cc -O2 -shared
 * -fPIC) and calls it through ctypes.  Both functions take the arrays a
 * FlowNetwork holds: n interior nodes, source and sink capacities per node,
 * and m interior arcs arc_u[k] -> arc_v[k] of capacity arc_cap[k].  A
 * residual arc with at most tol left counts as saturated.  They return 0, or
 * -1 when an allocation fails or the network is too large for int indices.
 *
 * gp_max_flow is FIFO push-relabel on double capacities (Goldberg and
 * Tarjan, JACM 1988) in one phase: labels run to 2N, N = n + 2, so excess
 * that cannot reach t climbs above the source's label N and returns to s,
 * and the result is a flow, not only a preflow.  Labels are set exactly by
 * a global relabel at the start and again whenever relabel work passes
 * 6N + m (Cherkassky and Goldberg, Algorithmica 1997): a reverse BFS from t,
 * then one from s offset by N.  Each source arc starts saturated, with what
 * the node's sink arc takes routed straight on to t.
 *
 * gp_reach marks the nodes reachable from s and those that reach t in the
 * residual network of a given flow, by two BFS.
 */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>

/* The residual arcs of the interior arcs, in CSR order by tail: arc k with
 * a residual either way is its forward arc u -> v at position fwd[k]
 * (residual cap - flow) and that arc's sister v -> u (residual flow);
 * fwd[k] = -1 for an arc left out.  ``flow`` and ``fwd`` may be NULL. */
typedef struct {
    int n;
    int *first;     /* n + 1: the arcs out of x are first[x]..first[x+1]-1 */
    int *head;
    int *sister;
    double *res;
} csr_t;

static void csr_free(csr_t *g)
{
    free(g->first);
    free(g->head);
    free(g->sister);
    free(g->res);
}

static int csr_build(csr_t *g, int n, int64_t m, const int64_t *au,
                     const int64_t *av, const double *cap, const double *flow,
                     double tol, int *fwd)
{
    int64_t k, kept = 0;
    int x;
#define FLOW(k) (flow ? flow[k] : 0.0)
#define KEPT(k) (cap[k] - FLOW(k) > tol || FLOW(k) > tol)
    for (k = 0; k < m; k++)
        kept += KEPT(k);
    g->n = n;
    g->first = calloc((size_t)n + 1, sizeof(int));
    g->head = malloc((size_t)(2 * kept + 1) * sizeof(int));
    g->sister = malloc((size_t)(2 * kept + 1) * sizeof(int));
    g->res = malloc((size_t)(2 * kept + 1) * sizeof(double));
    if (!g->first || !g->head || !g->sister || !g->res)
        return -1;
    for (k = 0; k < m; k++)
        if (KEPT(k)) {
            g->first[au[k] + 1]++;
            g->first[av[k] + 1]++;
        }
    for (x = 0; x < n; x++)
        g->first[x + 1] += g->first[x];
    /* fill each node's arcs at first[x], advancing it; shift back after */
    for (k = 0; k < m; k++) {
        int a, b;
        if (fwd)
            fwd[k] = -1;
        if (!KEPT(k))
            continue;
        a = g->first[au[k]]++;
        b = g->first[av[k]]++;
        g->head[a] = (int)av[k];
        g->head[b] = (int)au[k];
        g->sister[a] = b;
        g->sister[b] = a;
        g->res[a] = cap[k] - FLOW(k);
        g->res[b] = FLOW(k);
        if (fwd)
            fwd[k] = a;
    }
#undef KEPT
#undef FLOW
    for (x = n; x > 0; x--)
        g->first[x] = g->first[x - 1];
    g->first[0] = 0;
    return 0;
}

/* BFS on from the nodes queue[next..tail-1], over residual arcs forward
 * or, with backward set, against their direction; each node whose label is
 * still ``unset`` gets one more than the node it is reached from.  Returns
 * the new tail. */
static int bfs(const csr_t *g, int *label, int unset, int *queue, int next,
               int tail, double tol, int backward)
{
    for (; next < tail; next++) {
        int y = queue[next], a;
        for (a = g->first[y]; a < g->first[y + 1]; a++) {
            int w = g->head[a];
            if (label[w] == unset &&
                g->res[backward ? g->sister[a] : a] > tol) {
                label[w] = label[y] + 1;
                queue[tail++] = w;
            }
        }
    }
    return tail;
}

static int too_large(int64_t n, int64_t m)
{
    return n < 0 || m < 0 || n > INT_MAX / 2 - 2 || m > INT_MAX / 2 - 1;
}

/* whether node u can send excess back to s: the flow on s -> u is left */
static int reaches_source(const double *z_src, int u, double tol)
{
    return z_src[u] > tol;
}

typedef struct {
    int N, dead;
    double tol;
    csr_t g;
    double *excess, *z_src, *r_snk;
    int *label, *cur, *queue;
} pr_t;

/* exact distance labels: to t, else N + distance to s, else dead */
static void global_relabel(pr_t *p)
{
    int x, n = p->g.n, tail = 0, start;
    for (x = 0; x < n; x++) {
        p->label[x] = p->dead;
        p->cur[x] = p->g.first[x];
    }
    for (x = 0; x < n; x++)
        if (p->r_snk[x] > p->tol) {
            p->label[x] = 1;
            p->queue[tail++] = x;
        }
    tail = bfs(&p->g, p->label, p->dead, p->queue, 0, tail, p->tol, 1);
    start = tail;
    for (x = 0; x < n; x++)
        if (p->label[x] == p->dead && reaches_source(p->z_src, x, p->tol)) {
            p->label[x] = p->N + 1;
            p->queue[tail++] = x;
        }
    bfs(&p->g, p->label, p->dead, p->queue, start, tail, p->tol, 1);
}

int gp_max_flow(int64_t n64, int64_t m, const double *src, const double *snk,
                const int64_t *au, const int64_t *av, const double *cap,
                double tol, double *z_src, double *z_snk, double *z_arc)
{
    pr_t p = {0};
    int *fwd = NULL, *queue = NULL;
    char *queued = NULL;
    int x, n = (int)n64, head = 0, count = 0, rc = -1;
    int64_t k, work = 0, limit;

    if (too_large(n64, m))
        return -1;
    p.N = n + 2;
    p.dead = 2 * p.N;
    p.tol = tol;
    p.z_src = z_src;
    fwd = malloc((size_t)(m + 1) * sizeof(int));
    p.excess = malloc((size_t)(n + 1) * sizeof(double));
    p.r_snk = malloc((size_t)(n + 1) * sizeof(double));
    p.label = malloc((size_t)(n + 1) * sizeof(int));
    p.cur = malloc((size_t)(n + 1) * sizeof(int));
    p.queue = malloc((size_t)(n + 1) * sizeof(int));
    queue = malloc((size_t)(n + 1) * sizeof(int));
    queued = calloc((size_t)n + 1, 1);
    if (!fwd || !p.excess || !p.r_snk || !p.label || !p.cur || !p.queue ||
        !queue || !queued ||
        csr_build(&p.g, n, m, au, av, cap, NULL, tol, fwd))
        goto done;
    limit = 6 * (int64_t)p.N + p.g.first[n] / 2;

    for (x = 0; x < n; x++) {
        double through = src[x] < snk[x] ? src[x] : snk[x];
        z_src[x] = src[x];
        p.r_snk[x] = snk[x] - through;
        p.excess[x] = src[x] - through;
    }
    global_relabel(&p);
    for (x = 0; x < n; x++)
        if (p.excess[x] > tol && p.label[x] < p.dead) {
            queue[count++] = x;
            queued[x] = 1;
        }

    /* FIFO: discharge the node at the head of the queue */
    while (count) {
        const csr_t *g = &p.g;
        int u = queue[head], du;
        double e;
        head = head + 1 == n ? 0 : head + 1;
        count--;
        queued[u] = 0;
        if (work > limit) {
            global_relabel(&p);
            work = 0;
        }
        e = p.excess[u];
        du = p.label[u];
        while (e > tol && du < p.dead) {
            int a, end = g->first[u + 1];
            if (du == 1 && p.r_snk[u] > tol) {
                double f = e < p.r_snk[u] ? e : p.r_snk[u];
                p.r_snk[u] -= f;
                e -= f;
                continue;
            }
            if (du == p.N + 1 && reaches_source(z_src, u, tol)) {
                double f = e < z_src[u] ? e : z_src[u];
                z_src[u] -= f;
                e -= f;
                continue;
            }
            for (a = p.cur[u]; a < end; a++) {
                int v = g->head[a];
                if (g->res[a] > tol && p.label[v] == du - 1) {
                    double f = e < g->res[a] ? e : g->res[a];
                    g->res[a] -= f;
                    g->res[g->sister[a]] += f;
                    e -= f;
                    p.excess[v] += f;
                    if (!queued[v] && p.excess[v] > tol) {
                        int tail = head + count;
                        queue[tail >= n ? tail - n : tail] = v;
                        queued[v] = 1;
                        count++;
                    }
                    if (!(e > tol))
                        break;
                }
            }
            p.cur[u] = a;
            if (a < end)
                break;
            /* relabel: one above the lowest residual neighbour */
            du = p.dead;
            if (p.r_snk[u] > tol)
                du = 1;
            else {
                if (reaches_source(z_src, u, tol))
                    du = p.N + 1;
                for (a = g->first[u]; a < end; a++)
                    if (g->res[a] > tol && p.label[g->head[a]] + 1 < du)
                        du = p.label[g->head[a]] + 1;
            }
            p.cur[u] = g->first[u];
            work += end - g->first[u] + 12;
        }
        p.excess[u] = e;
        p.label[u] = du;
    }

    for (x = 0; x < n; x++)
        z_snk[x] = snk[x] - p.r_snk[x];
    for (k = 0; k < m; k++)
        z_arc[k] = fwd[k] < 0 ? 0.0 : p.g.res[p.g.sister[fwd[k]]];
    rc = 0;
done:
    csr_free(&p.g);
    free(fwd);
    free(p.excess);
    free(p.r_snk);
    free(p.label);
    free(p.cur);
    free(p.queue);
    free(queue);
    free(queued);
    return rc;
}

int gp_reach(int64_t n64, int64_t m, const int64_t *au, const int64_t *av,
             const double *c_src, const double *c_snk, const double *c_arc,
             const double *z_src, const double *z_snk, const double *z_arc,
             double tol, uint8_t *from_s, uint8_t *to_t)
{
    csr_t g = {0};
    int x, n = (int)n64, pass, *label = NULL, *queue = NULL, rc = -1;

    if (too_large(n64, m))
        return -1;
    label = malloc((size_t)(n + 1) * sizeof(int));
    queue = malloc((size_t)(n + 1) * sizeof(int));
    if (!label || !queue ||
        csr_build(&g, n, m, au, av, c_arc, z_arc, tol, NULL))
        goto done;
    /* forward from the nodes with source residual, then backward from
     * those with sink residual */
    for (pass = 0; pass < 2; pass++) {
        const double *c = pass ? c_snk : c_src, *z = pass ? z_snk : z_src;
        uint8_t *mark = pass ? to_t : from_s;
        int tail = 0;
        for (x = 0; x < n; x++) {
            label[x] = c[x] - z[x] > tol;
            if (label[x])
                queue[tail++] = x;
        }
        bfs(&g, label, 0, queue, 0, tail, tol, pass);
        for (x = 0; x < n; x++)
            mark[x] = label[x] != 0;
    }
    rc = 0;
done:
    csr_free(&g);
    free(label);
    free(queue);
    return rc;
}
