/* A command-line runner for the entry points of src/graphseg/_solve.c, so
 * that a build under -fsanitize=address,undefined can run them outside the
 * Python process (tests/test_sanitizers.py).  It is compiled as one
 * translation unit with the library, whose source comes first:
 *
 *   gcc -fsanitize=address,undefined -include src/graphseg/_solve.c \
 *       tests/sanitize_runner.c -lm
 *
 * Binary in on stdin, binary out on stdout, native byte order:
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
 *                  out: int32 status, int64 info[3] (samples read, offset
 *                       of the failing line, its index), then double
 *                       amplitudes[samples read]
 *
 * Every input array is a malloc'd block of exactly its size, so a read past
 * its end is a heap overflow that the address sanitizer reports. */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

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
    int64_t cap = ((int64_t)input_len - start + 1) / 4, info[3] = {0};
    double *out = malloc(cap > 0 ? (size_t)cap * sizeof(double) : 1);
    int32_t status;

    if (!out)
        die("out of memory");
    status = graphseg_parse_samples(buf, start, (int64_t)input_len, out, cap, info);
    put(&status, sizeof status);
    put(info, sizeof info);
    put(out, (size_t)info[0] * sizeof(double));
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
