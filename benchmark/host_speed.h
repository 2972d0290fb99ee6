#ifndef ELASTICORE_BENCHMARK_HOST_SPEED_H_
#define ELASTICORE_BENCHMARK_HOST_SPEED_H_

// The speed of the host right now, from fixed reference kernels that are
// part of the benchmark and never change with the program. On a shared
// virtual machine the same pass runs up to twice as slow when neighbours
// load the host; the benchmark divides its times by this slowdown, so that
// runs taken minutes or hours apart compare.

namespace elasticore_bench {

/// Runs each reference kernel once (about 0.2 s in all) and returns the
/// mean, over the kernels, of its time over its nominal time: about 1.0 on
/// a quiet host, larger on a loaded one.
double MeasureHostSlowdown();

}  // namespace elasticore_bench

#endif  // ELASTICORE_BENCHMARK_HOST_SPEED_H_
