#include "baselines/designs.hh"

#include "common/logging.hh"

namespace adyna::baselines {

std::vector<Design>
allDesigns()
{
    return {Design::MTile, Design::MTenant, Design::AdynaStatic,
            Design::Adyna, Design::FullKernel};
}

const char *
designName(Design design)
{
    switch (design) {
      case Design::MTile: return "M-tile";
      case Design::MTenant: return "M-tenant";
      case Design::AdynaStatic: return "Adyna (static)";
      case Design::Adyna: return "Adyna";
      case Design::FullKernel: return "full-kernel";
    }
    ADYNA_PANIC("bad design");
}

core::SchedulerConfig
schedulerConfig(Design design)
{
    core::SchedulerConfig cfg;
    switch (design) {
      case Design::MTile:
        // Static worst-case schedule: no frequency weighting, no
        // runtime optimizations.
        cfg.worstCase = true;
        cfg.tileSharing = false;
        cfg.branchGrouping = false;
        break;
      case Design::MTenant:
        // Planaria-style tenants: allocation is recomputed per batch
        // by the engine; no sharing/grouping concepts.
        cfg.tileSharing = false;
        cfg.branchGrouping = false;
        break;
      case Design::AdynaStatic:
        // Frequency-weighted offline schedule, but no tile sharing
        // (a runtime adjustment technique).
        cfg.tileSharing = false;
        cfg.branchGrouping = false;
        break;
      case Design::Adyna:
      case Design::FullKernel:
        cfg.tileSharing = true;
        cfg.branchGrouping = true;
        break;
    }
    return cfg;
}

core::ExecPolicy
execPolicy(Design design)
{
    core::ExecPolicy p;
    switch (design) {
      case Design::MTile:
        p.worstCaseExec = true;
        p.kernelFitting = false;
        p.pipelining = true;
        break;
      case Design::MTenant:
        p.kernelFitting = true;
        p.pipelining = false; // tensors round-trip through DRAM
        p.hostRouting = true; // switch/merge on the host CPU
        p.perBatchRepartition = true;
        p.exactKernels = true; // optimistic pre-compiled kernels
        break;
      case Design::AdynaStatic:
        p.kernelFitting = true;
        p.pipelining = true;
        break;
      case Design::Adyna:
        p.kernelFitting = true;
        p.pipelining = true;
        break;
      case Design::FullKernel:
        p.kernelFitting = true;
        p.pipelining = true;
        p.exactKernels = true; // every kernel available on-chip
        break;
    }
    return p;
}

core::RunOptions
runOptions(Design design, int num_batches, std::uint64_t seed)
{
    core::RunOptions opts;
    opts.numBatches = num_batches;
    opts.seed = seed;
    switch (design) {
      case Design::MTile:
        opts.reconfigPeriod = 0;
        opts.profileBatches = 0;
        opts.resampleKernels = false;
        break;
      case Design::MTenant:
        // Fast per-batch adjustment happens inside the engine; the
        // expectations-based segment layout is refreshed like
        // Adyna's for fairness.
        opts.reconfigPeriod = 40;
        opts.resampleKernels = false;
        break;
      case Design::AdynaStatic:
        opts.reconfigPeriod = 0; // no runtime adjustment
        opts.resampleKernels = false;
        break;
      case Design::Adyna:
        opts.reconfigPeriod = 40;
        opts.resampleKernels = true;
        break;
      case Design::FullKernel:
        opts.reconfigPeriod = 40;
        opts.resampleKernels = false; // kernels are always exact
        break;
    }
    return opts;
}

core::System
makeSystem(const graph::DynGraph &dg,
           const trace::TraceConfig &trace_cfg,
           const arch::HwConfig &hw, Design design, int num_batches,
           std::uint64_t seed)
{
    return core::System(dg, trace_cfg, hw, schedulerConfig(design),
                        execPolicy(design),
                        runOptions(design, num_batches, seed),
                        designName(design));
}

} // namespace adyna::baselines
