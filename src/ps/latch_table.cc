#include "ps/latch_table.h"

#include <thread>

#include "util/logging.h"
#include "util/pow2.h"

namespace lapse {
namespace ps {

void Latch::Yield() noexcept { std::this_thread::yield(); }

LatchTable::LatchTable(size_t num_latches)
    : num_latches_(RoundUpPow2(num_latches)),
      per_shard_mask_(num_latches_ - 1),
      per_shard_(num_latches_),
      layout_(nullptr),
      slots_(new Slot[num_latches_]) {
  LAPSE_CHECK_GT(num_latches, 0u);
}

LatchTable::LatchTable(size_t num_latches, const KeyLayout* layout)
    : layout_(layout->num_shards() > 1 ? layout : nullptr) {
  LAPSE_CHECK_GT(num_latches, 0u);
  const size_t shards =
      layout_ ? static_cast<size_t>(layout->num_shards()) : 1;
  // Keep the requested total: each shard gets its share, rounded up to a
  // power of two so the within-shard lookup stays a mask.
  per_shard_ = RoundUpPow2((num_latches + shards - 1) / shards);
  per_shard_mask_ = per_shard_ - 1;
  num_latches_ = per_shard_ * shards;
  slots_.reset(new Slot[num_latches_]);
}

}  // namespace ps
}  // namespace lapse
