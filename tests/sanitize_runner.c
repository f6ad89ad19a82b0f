/* A command-line runner for the entry points of src/graphseg/_solve.c, so
 * that a build under -fsanitize=address,undefined or -fsanitize=thread can
 * run them outside the Python process (tests/test_sanitizers.py).  It is
 * compiled as one translation unit with the library, whose source comes
 * first:
 *
 *   gcc -fsanitize=address,undefined -pthread -include src/graphseg/_solve.c \
 *       tests/sanitize_runner.c -lm
 *
 * Binary in on stdin, binary out on stdout, native byte order:
 *
 *   runner solve   in:  int64 n, int32 nstates, int32 start, int32 nedges,
 *                       double dlo, double dhi, double y[n],
 *                       Edge edges[nedges]
 *                  out: int32 status, int64 info[7], double total_cost,
 *                       Segment segs[n] (entries the solve does not write
 *                       are zero)
 *
 *   runner solve-threads K
 *                  the same, solved in K threads at once (1 <= K <= 64),
 *                  each with outputs of its own; all K must be equal, and
 *                  the first is written
 *
 *   runner envelope UP
 *                  in:  int64 n, double gap, double dlo, double dhi,
 *                       Piece f[n]
 *                  out: int64 count, then Piece out[count] of
 *                       graphseg_envelope (a down edge if UP is 0, else up);
 *                       the padding bytes of out are zero
 *
 *   runner parse START
 *                  in:  a sample file's bytes, its body from START
 *                  out: int32 status, int64 info[3] (samples read, offset
 *                       of the failing line, its index), then double
 *                       amplitudes[samples read]
 *
 *   runner format START CAP
 *                  in:  double y[n], the whole input
 *                  out: the sample lines of y from START, formatted in as
 *                       many calls as it takes into one buffer of CAP
 *                       bytes, as graphseg.data.save_record calls it; a
 *                       line that the library leaves to its caller is
 *                       written "i,?\n"
 *
 * Every input array is a malloc'd block of exactly its size, so a read past
 * its end is a heap overflow that the address sanitizer reports. */

#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define MAX_THREADS 64

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

struct solve_call {
    /* in */
    int64_t n;
    int32_t *head;  /* nstates, start, nedges */
    double *dom, *y;
    Edge *edges;
    /* out */
    int32_t status;
    int64_t info[7];
    double total;
    Segment *segs;
};

static void *solve_call(void *arg)
{
    struct solve_call *c = arg;

    c->status = graphseg_solve(c->y, c->n, c->head[0], c->head[1], c->head[2], c->edges,
                               c->dom[0], c->dom[1], c->segs, c->info, &c->total);
    return NULL;
}

static int same_outputs(const struct solve_call *a, const struct solve_call *b)
{
    return a->status == b->status && !memcmp(a->info, b->info, sizeof a->info) &&
           !memcmp(&a->total, &b->total, sizeof a->total) &&
           !memcmp(a->segs, b->segs, (size_t)a->n * sizeof(Segment));
}

/* Solve the input once, or with threads > 0 in that many threads at once,
 * each writing outputs of its own, which must all be equal. */
static int run_solve(int threads)
{
    struct solve_call in = {0}, *calls;
    pthread_t *ids;
    int64_t *n = take(sizeof *n);
    int k, count = threads > 0 ? threads : 1;

    in.n = *n;
    free(n);
    in.head = take(3 * sizeof(int32_t));
    in.dom = take(2 * sizeof(double));
    in.y = take((size_t)in.n * sizeof(double));
    in.edges = take((size_t)in.head[2] * sizeof(Edge));
    calls = malloc((size_t)count * sizeof *calls);
    ids = malloc((size_t)count * sizeof *ids);
    if (!calls || !ids)
        die("out of memory");
    for (k = 0; k < count; k++) {
        calls[k] = in;
        calls[k].segs = calloc((size_t)in.n, sizeof(Segment));
        if (!calls[k].segs)
            die("out of memory");
    }
    if (threads > 0) {
        for (k = 0; k < count; k++)
            if (pthread_create(&ids[k], NULL, solve_call, &calls[k]))
                die("cannot start a thread");
        for (k = 0; k < count; k++)
            pthread_join(ids[k], NULL);
    } else {
        solve_call(&calls[0]);
    }
    for (k = 1; k < count; k++)
        if (!same_outputs(&calls[0], &calls[k]))
            die("the threads' solves differ");
    put(&calls[0].status, sizeof calls[0].status);
    put(calls[0].info, sizeof calls[0].info);
    put(&calls[0].total, sizeof calls[0].total);
    put(calls[0].segs, (size_t)in.n * sizeof(Segment));
    for (k = 0; k < count; k++)
        free(calls[k].segs);
    free(calls);
    free(ids);
    free(in.head);
    free(in.dom);
    free(in.y);
    free(in.edges);
    return 0;
}

static int run_envelope(int32_t up)
{
    int64_t *n = take(sizeof *n), count;
    double *args = take(3 * sizeof(double)); /* gap, dlo, dhi */
    Piece *f = take((size_t)*n * sizeof(Piece));
    Piece *env = malloc((4 * (size_t)*n + 1) * sizeof(Piece));
    Piece *out = calloc(4 * (size_t)*n + 1, sizeof(Piece));

    if (!env || !out)
        die("out of memory");
    count = graphseg_envelope(f, *n, args[0], up, args[1], args[2], env, out);
    put(&count, sizeof count);
    if (count > 0)
        put(out, (size_t)count * sizeof(Piece));
    free(n);
    free(args);
    free(f);
    free(env);
    free(out);
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

static int run_format(int64_t start, int64_t cap)
{
    int64_t n = (int64_t)(input_len / sizeof(double)), i = start, info[2];
    double *y = take((size_t)n * sizeof(double));
    char *out = malloc(cap > 0 ? (size_t)cap : 1);

    if (!out)
        die("out of memory");
    while (i < n) {
        int left = graphseg_format_samples(y, i, n, out, cap, info);
        put(out, (size_t)info[1]);
        if (left)
            printf("%lld,?\n", (long long)info[0]);
        else if (info[0] == i)
            die("no room for a line");
        i = info[0] + left;
    }
    free(y);
    free(out);
    return 0;
}

int main(int argc, char **argv)
{
    int rc;

    read_input();
    if (argc == 2 && !strcmp(argv[1], "solve"))
        rc = run_solve(0);
    else if (argc == 3 && !strcmp(argv[1], "solve-threads") && atoi(argv[2]) > 0 &&
             atoi(argv[2]) <= MAX_THREADS)
        rc = run_solve(atoi(argv[2]));
    else if (argc == 3 && !strcmp(argv[1], "envelope"))
        rc = run_envelope(atoi(argv[2]) != 0);
    else if (argc == 3 && !strcmp(argv[1], "parse"))
        rc = run_parse(strtoll(argv[2], NULL, 10));
    else if (argc == 4 && !strcmp(argv[1], "format"))
        rc = run_format(strtoll(argv[2], NULL, 10), strtoll(argv[3], NULL, 10));
    else
        die("usage: runner solve | runner solve-threads K | runner envelope UP | "
            "runner parse START | runner format START CAP");
    free(input);
    return rc;
}
