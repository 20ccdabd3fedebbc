#include "htm/htm_config.hh"

namespace tmsim {

HtmConfig
HtmConfig::paperLazy()
{
    HtmConfig cfg;
    cfg.version = VersionMode::WriteBuffer;
    cfg.conflict = ConflictMode::Lazy;
    cfg.nesting = NestingMode::Full;
    cfg.scheme = NestScheme::Associativity;
    cfg.maxHwLevels = 4;
    cfg.lazyMerge = true;
    return cfg;
}

HtmConfig
HtmConfig::eagerUndoLog()
{
    HtmConfig cfg;
    cfg.version = VersionMode::UndoLog;
    cfg.conflict = ConflictMode::Eager;
    cfg.nesting = NestingMode::Full;
    cfg.scheme = NestScheme::MultiTracking;
    cfg.maxHwLevels = 4;
    return cfg;
}

HtmConfig
HtmConfig::flattenedBaseline()
{
    HtmConfig cfg = paperLazy();
    cfg.nesting = NestingMode::Flatten;
    return cfg;
}

std::string
HtmConfig::describe() const
{
    std::string s;
    s += version == VersionMode::WriteBuffer ? "write-buffer" : "undo-log";
    s += conflict == ConflictMode::Lazy ? "/lazy" : "/eager";
    s += nesting == NestingMode::Full ? "/nested" : "/flattened";
    s += scheme == NestScheme::Associativity ? "/assoc" : "/multitrack";
    if (contention != ContentionPolicy::Requester) {
        s += "/cm=";
        s += contentionPolicyName(contention);
    }
    if (boundedCapacity()) {
        s += "/cap=r" + std::to_string(rsetCap) + "w" +
             std::to_string(wsetCap) + ":";
        s += capacityModeName(capacityMode);
    }
    return s;
}

} // namespace tmsim
