#include "htm/htm_config.hh"

namespace tmsim {

const char*
contentionPolicyName(ContentionPolicy p)
{
    switch (p) {
    case ContentionPolicy::Requester: return "requester";
    case ContentionPolicy::Timestamp: return "timestamp";
    case ContentionPolicy::Karma: return "karma";
    case ContentionPolicy::Polite: return "polite";
    case ContentionPolicy::Hybrid: return "hybrid";
    }
    return "?";
}

bool
contentionPolicyFromName(const std::string& s, ContentionPolicy& out)
{
    if (s == "requester")
        out = ContentionPolicy::Requester;
    else if (s == "timestamp")
        out = ContentionPolicy::Timestamp;
    else if (s == "karma")
        out = ContentionPolicy::Karma;
    else if (s == "polite")
        out = ContentionPolicy::Polite;
    else if (s == "hybrid")
        out = ContentionPolicy::Hybrid;
    else
        return false;
    return true;
}

const char*
capacityModeName(CapacityMode m)
{
    switch (m) {
    case CapacityMode::Abort: return "abort";
    case CapacityMode::Overflow: return "overflow";
    }
    return "?";
}

bool
capacityModeFromName(const std::string& s, CapacityMode& out)
{
    if (s == "abort")
        out = CapacityMode::Abort;
    else if (s == "overflow")
        out = CapacityMode::Overflow;
    else
        return false;
    return true;
}

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
