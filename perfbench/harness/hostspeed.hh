/**
 * @file
 * Host-speed normalisation for the CPU-bound workloads.
 *
 * On a small shared virtual machine the CPU a thread runs on slows down
 * and speeds up by tens of percent over seconds to minutes, most likely
 * as other tenants load the physical core and its caches.  batch_sweep
 * and diff_fuzz therefore pin themselves to one CPU and, before every
 * timed slice of work, time a fixed piece of work of the benchmark's own
 * (the speed probe) on that CPU.  A slice's times are scaled by
 * (kProbeReferenceMs / probe time) to the power of the workload's
 * sensitivity: they read in reference milliseconds, i.e. as on a CPU
 * that runs the probe in kProbeReferenceMs.  The probe calls no code of
 * the program, so a change to the program moves the scaled figures by
 * the same factor as the raw ones.  See NOTES.md.
 */

#ifndef PERFBENCH_HOSTSPEED_HH
#define PERFBENCH_HOSTSPEED_HH

#include <sched.h>

#include <cmath>

namespace perfbench {

/** About the probe's typical time on the 4-vCPU machine the benchmark
 *  was built on (Xeon, 2.1 GHz, KVM; 6-10 ms seen), ms.  A fixed
 *  constant: changing it rescales every normalised figure. */
inline constexpr double kProbeReferenceMs = 8.0;

/** Set-up time goes about as the probe's time: over 60 runs the
 *  log-log slope was 0.77 to 0.87 (NOTES.md). */
inline constexpr double kSetupSensitivity = 1.0;

/** Run the speed probe once on the calling thread; its wall time, ms. */
double speedProbeMs();

/**
 * Factor that turns a time measured right after @p probeMs into
 * reference time.  @p sensitivity is how much more a workload slows
 * down than the probe when the host loads the CPU: its time goes as the
 * probe's time to that power (measured per workload, see NOTES.md).
 */
inline double
speedScale(double probeMs, double sensitivity)
{
    return std::pow(kProbeReferenceMs / probeMs, sensitivity);
}

/**
 * Pins the calling thread, and every thread it starts while pinned, to
 * the CPU it runs on now, so the probe and the work it scales share one
 * CPU.  The destructor restores the thread's previous CPU set.
 */
class PinToCpu
{
  public:
    PinToCpu();
    ~PinToCpu();
    PinToCpu(const PinToCpu &) = delete;
    PinToCpu &operator=(const PinToCpu &) = delete;

    int cpu() const { return cpu_; }

  private:
    cpu_set_t saved_;
    bool restore_ = false;
    int cpu_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_HH
