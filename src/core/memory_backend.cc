#include "core/memory_backend.hh"

namespace rampage
{

MemoryBackend::MemoryBackend(const CommonConfig &cfg)
    : rambusModel(cfg.rambus),
      dramSel(cfg.dramKind == CommonConfig::DramKind::Sdram
                  ? static_cast<const DramModel *>(&sdramModel)
                  : static_cast<const DramModel *>(&rambusModel)),
      dir(cfg.dramPageBytes)
{
}

} // namespace rampage
