/* A command-line runner for the entry points of src/graphseg/_solve.c, so
 * that a build under -fsanitize=address,undefined can run them outside the
 * Python process (tests/test_sanitizers.py).  Binary in on stdin, binary
 * out on stdout, native byte order:
 *
 *   runner solve   in:  int64 n, int32 nstates, int32 start, int32 nedges,
 *                       double dlo, double dhi, double y[n],
 *                       int32 src[nedges], int32 tgt[nedges],
 *                       int8 up[nedges], double gap[nedges],
 *                       double penalty[nedges]
 *                  out: int32 status, int64 info[6], double total_cost,
 *                       int64 bounds[n], int32 edges[n], int32 states[n],
 *                       double means[n]
 *
 *   runner parse START
 *                  in:  a sample file's bytes, its body from START
 *                  out: int64 count, then double amplitudes[count]
 *
 * Every input array is a malloc'd block of exactly its size, so a read past
 * its end is a heap overflow that the address sanitizer reports. */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int graphseg_solve(const double *y, int64_t n, int32_t nstates, int32_t start,
                   int32_t nedges, const int32_t *e_src, const int32_t *e_tgt,
                   const int8_t *e_up, const double *e_gap, const double *e_pen,
                   double dlo, double dhi, int64_t *bounds, int32_t *edges_out,
                   int32_t *states_out, double *means_out, int64_t *info,
                   double *total_cost);
int64_t graphseg_parse_samples(const char *buf, int64_t start, int64_t len,
                               double *out, int64_t cap);

static char *input;
static size_t input_len, input_pos;

static void die(const char *msg)
{
    fprintf(stderr, "sanitize_runner: %s\n", msg);
    exit(2);
}

static void read_input(void)
{
    size_t cap = 1 << 16, got;

    input = malloc(cap);
    while (input && (got = fread(input + input_len, 1, cap - input_len, stdin)) > 0) {
        input_len += got;
        if (input_len == cap)
            input = realloc(input, cap *= 2);
    }
    if (!input)
        die("out of memory");
}

/* the next size bytes of the input, in a block of their own */
static void *take(size_t size)
{
    void *p = malloc(size ? size : 1);

    if (!p)
        die("out of memory");
    if (size > input_len - input_pos)
        die("input too short");
    memcpy(p, input + input_pos, size);
    input_pos += size;
    return p;
}

static void put(const void *p, size_t size)
{
    if (fwrite(p, 1, size, stdout) != size)
        die("write failed");
}

static int run_solve(void)
{
    int64_t *n = take(sizeof *n), info[6] = {0};
    int32_t *head = take(3 * sizeof(int32_t));
    double *dom = take(2 * sizeof(double)), total = 0.0;
    int32_t nedges = head[2];
    double *y = take((size_t)*n * sizeof(double));
    int32_t *src = take((size_t)nedges * sizeof(int32_t));
    int32_t *tgt = take((size_t)nedges * sizeof(int32_t));
    int8_t *up = take((size_t)nedges);
    double *gap = take((size_t)nedges * sizeof(double));
    double *pen = take((size_t)nedges * sizeof(double));
    int64_t *bounds = calloc((size_t)*n, sizeof(int64_t));
    int32_t *edges = calloc((size_t)*n, sizeof(int32_t));
    int32_t *states = calloc((size_t)*n, sizeof(int32_t));
    double *means = calloc((size_t)*n, sizeof(double));
    int32_t status;

    if (!bounds || !edges || !states || !means)
        die("out of memory");
    status = graphseg_solve(y, *n, head[0], head[1], nedges, src, tgt, up, gap, pen,
                            dom[0], dom[1], bounds, edges, states, means, info, &total);
    put(&status, sizeof status);
    put(info, sizeof info);
    put(&total, sizeof total);
    put(bounds, (size_t)*n * sizeof(int64_t));
    put(edges, (size_t)*n * sizeof(int32_t));
    put(states, (size_t)*n * sizeof(int32_t));
    put(means, (size_t)*n * sizeof(double));
    free(n);
    free(head);
    free(dom);
    free(y);
    free(src);
    free(tgt);
    free(up);
    free(gap);
    free(pen);
    free(bounds);
    free(edges);
    free(states);
    free(means);
    return 0;
}

static int run_parse(int64_t start)
{
    char *buf = take(input_len);
    /* the capacity graphseg.data.load_signal_csv gives */
    int64_t cap = ((int64_t)input_len - start + 1) / 4, count;
    double *out = malloc(cap > 0 ? (size_t)cap * sizeof(double) : 1);

    if (!out)
        die("out of memory");
    count = graphseg_parse_samples(buf, start, (int64_t)input_len, out, cap);
    put(&count, sizeof count);
    if (count > 0)
        put(out, (size_t)count * sizeof(double));
    free(buf);
    free(out);
    return 0;
}

int main(int argc, char **argv)
{
    int rc;

    read_input();
    if (argc == 2 && !strcmp(argv[1], "solve"))
        rc = run_solve();
    else if (argc == 3 && !strcmp(argv[1], "parse"))
        rc = run_parse(strtoll(argv[2], NULL, 10));
    else
        die("usage: runner solve | runner parse START");
    free(input);
    return rc;
}
