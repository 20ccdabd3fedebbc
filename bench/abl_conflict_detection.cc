/**
 * @file
 * Ablation A1 (paper sections 2.2/6.1 design space): lazy write-buffer
 * (TCC-style) vs eager undo-log (UTM/LogTM-style) conflict detection,
 * under requester-wins and timestamp (older-wins) contention
 * management, across the contention spectrum of the workload suite.
 */

#include <cstdio>

#include "sim/logging.hh"
#include "workloads/kernel_mp3d.hh"
#include "workloads/kernel_specjbb.hh"
#include "workloads/kernels_scientific.hh"

using namespace tmsim;

namespace {

void
row(const char* name, const KernelFactory& make)
{
    HtmConfig lazy = HtmConfig::paperLazy();
    HtmConfig eagerRq = HtmConfig::eagerUndoLog();
    HtmConfig eagerTs = HtmConfig::eagerUndoLog();
    eagerTs.contention = ContentionPolicy::Timestamp;

    struct Cfg
    {
        const char* tag;
        HtmConfig cfg;
    } cfgs[] = {
        {"lazy/wb", lazy},
        {"eager/requester", eagerRq},
        {"eager/timestamp", eagerTs},
    };

    std::printf("%-14s", name);
    RunResult base;
    bool first = true;
    for (const Cfg& c : cfgs) {
        auto k = make();
        RunResult r = runKernel(*k, c.cfg, 8);
        if (first) {
            base = r;
            first = false;
        }
        std::printf(" %9llu (%4.2fx rb=%llu%s)",
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<double>(base.cycles) /
                        static_cast<double>(r.cycles),
                    static_cast<unsigned long long>(r.rollbacks),
                    r.verified ? "" : " BAD");
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    defaultLogContext().quiet = true;
    std::printf("# Ablation: conflict detection / versioning design "
                "points at 8 CPUs\n");
    std::printf("# cycles (relative speed vs lazy/wb, higher = faster; rollbacks)\n");
    std::printf("%-14s %28s %28s %28s\n", "benchmark", "lazy/write-buffer",
                "eager/requester", "eager/timestamp");

    row("mp3d", [] { return std::make_unique<Mp3dKernel>(); });
    row("water",
        [] { return std::make_unique<SciKernel>(sciWater()); });
    row("swim", [] { return std::make_unique<SciKernel>(sciSwim()); });
    row("specjbb-open", [] {
        return std::make_unique<SpecJbbKernel>(JbbVariant::OpenNested);
    });
    return 0;
}
