#include "ps/location.h"

namespace lapse {
namespace ps {

LocationTable::LocationTable(const KeyLayout* layout, bool epochs)
    : owner_(layout->num_keys()), epoch_(epochs ? layout->num_keys() : 0) {
  for (uint64_t k = 0; k < layout->num_keys(); ++k) {
    owner_[k].store(layout->Home(k), std::memory_order_relaxed);
  }
}

}  // namespace ps
}  // namespace lapse
