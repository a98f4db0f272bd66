/* Monotonic clock for bounded waits: CLOCK_MONOTONIC via clock_gettime,
   returned as nanoseconds in an int64. Exposed unboxed + noalloc so a
   deadline check inside a spin loop costs a C call and nothing else. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <stdint.h>
#include <sched.h>
#include <time.h>

int64_t flds_mono_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
    return 0; /* cannot happen on a supported kernel; 0 keeps waits finite */
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value flds_mono_now_byte(value unit)
{
  return caml_copy_int64(flds_mono_now_unboxed(unit));
}

/* Same clock truncated to an OCaml int (63 bits of nanoseconds: ~146
   years of uptime). The int64 variant's box is only elided under
   flambda; the obs flight recorder stamps events on every hot-path
   call, so it needs a reading that never allocates on any compiler. */
intnat flds_mono_now_int_unboxed(value unit)
{
  return (intnat)flds_mono_now_unboxed(unit);
}

value flds_mono_now_int_byte(value unit)
{
  return Val_long(flds_mono_now_int_unboxed(unit));
}

/* Give the CPU to any other runnable thread on this core and return at
   once when there is none. The precise wait's last stretch loops on it,
   so a waiter never starves a thread it shares a core with. */
value flds_sched_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}
