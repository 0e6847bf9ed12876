#include "nic/nic_kind.hh"

namespace shrimp::nic
{

const char *
nicKindName(NicKind kind)
{
    switch (kind) {
      case NicKind::Shrimp:
        return "shrimp";
      case NicKind::Baseline:
        return "baseline";
      case NicKind::Modern:
        return "modern";
    }
    return "?";
}

bool
parseNicKind(std::string_view name, NicKind &out)
{
    if (name == "shrimp")
        out = NicKind::Shrimp;
    else if (name == "baseline")
        out = NicKind::Baseline;
    else if (name == "modern")
        out = NicKind::Modern;
    else
        return false;
    return true;
}

NicCaps
nicKindCaps(NicKind kind)
{
    NicCaps caps;
    switch (kind) {
      case NicKind::Shrimp:
        caps.autoUpdate = true;
        break;
      case NicKind::Baseline:
        break;
      case NicKind::Modern:
        caps.doorbell = true;
        caps.batchedNotify = true;
        break;
    }
    return caps;
}

} // namespace shrimp::nic
