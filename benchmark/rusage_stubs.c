/* Resource readings for the benchmark: CPU time of the whole process
   and of the calling thread (ns), and peak resident set size (getrusage
   ru_maxrss, KiB — the kernel's VmHWM). All allocation-free. */

#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>

static value cpu_ns(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

value flds_bench_cpu_ns(value unit)
{
  (void)unit;
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}

value flds_bench_thread_cpu_ns(value unit)
{
  (void)unit;
  return cpu_ns(CLOCK_THREAD_CPUTIME_ID);
}

value flds_bench_maxrss_kb(value unit)
{
  (void)unit;
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
