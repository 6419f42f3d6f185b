#include "net/shed.hpp"

namespace edfkit::net {

bool ShedPolicy::should_shed(NetOp op, std::size_t pending,
                             const StoreHeader& header,
                             std::uint32_t processors) const noexcept {
  if (op != NetOp::Admit && op != NetOp::AdmitGroup) return false;
  if (opts_.max_pending != 0 && pending >= opts_.max_pending) return true;
  if (opts_.max_residents != 0 && header.residents >= opts_.max_residents) {
    return true;
  }
  if (opts_.utilization_headroom < 1.0 &&
      header.utilization >=
          opts_.utilization_headroom * static_cast<double>(processors)) {
    return true;
  }
  return false;
}

}  // namespace edfkit::net
