/* CPU affinity for the benchmark process: the CPUs it may run on, and
   pinning the calling thread to one of them. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int i = CPU_SETSIZE - 1; i >= 0; i--) {
      if (CPU_ISSET(i, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(i));
        Store_field(cell, 1, list);
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof(set), &set) == 0);
}
