/* A statistical CPU profiler to LD_PRELOAD into any process (see
 * scripts/profile.sh): ITIMER_PROF raises SIGPROF per PROF_US of CPU time
 * the process burns, on whichever thread burned it; the handler keeps the
 * interrupted PC. At start-up it asks the dynamic linker where libc's
 * string routines are: for an IFUNC symbol `dlsym` returns the
 * implementation the process actually calls, which a stripped libc names
 * nowhere else. At exit the process writes $SAMPLER_DIR/prof.<pid>: a line
 * "sym <hex address> <name>" per routine found, its /proc/self/maps, a line
 * "pcs", then one hex PC per sample. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PROF_US 500
#define CAP (1 << 20)
static unsigned long pcs[CAP];
static unsigned long taken;

static const char *const ROUTINES[] = {"memmove", "memcpy", "memset", "memcmp", "strlen"};
#define NROUTINES (sizeof ROUTINES / sizeof *ROUTINES)
static void *routines[NROUTINES];

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    unsigned long pc = uc->uc_mcontext.pc;
#endif
    unsigned long at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at < CAP) pcs[at] = pc;
}

__attribute__((constructor)) static void start(void) {
    for (unsigned i = 0; i < NROUTINES; i++) routines[i] = dlsym(RTLD_DEFAULT, ROUTINES[i]);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, PROF_US}, {0, PROF_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *dir = getenv("SAMPLER_DIR");
    char path[4096];
    snprintf(path, sizeof path, "%s/prof.%d", dir ? dir : ".", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (unsigned i = 0; i < NROUTINES; i++)
        if (routines[i]) fprintf(out, "sym %lx %s\n", (unsigned long)routines[i], ROUTINES[i]);
    int c;
    while ((c = fgetc(maps)) != EOF) fputc(c, out);
    fputs("pcs\n", out);
    unsigned long n = taken < CAP ? taken : CAP;
    for (unsigned long i = 0; i < n; i++) fprintf(out, "%lx\n", pcs[i]);
    fclose(maps);
    fclose(out);
}
