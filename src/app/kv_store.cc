#include "app/kv_store.hh"

#include <cstring>
#include <exception>

#include "util/bit_utils.hh"

namespace secdimm::app
{

namespace
{

/** Little-endian u16/u32 record-header fields. */
void
putU16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

/** roundUp(B, N): the smallest slot stride that starts every slot on
 *  shard 0, so block b of any slot lands on shard b mod N. */
std::uint64_t
slotStrideFor(unsigned blocks_per_slot, unsigned shards)
{
    return divCeil(blocks_per_slot, shards) * shards;
}

} // namespace

const char *
kvIndexModeName(KvIndexMode mode)
{
    return mode == KvIndexMode::Oblivious ? "oblivious"
                                          : "leaky_baseline";
}

unsigned
ObliviousKVStore::slotBlocksFor(std::size_t max_key_bytes,
                                std::size_t max_value_bytes)
{
    const std::size_t record = headerBytes + max_key_bytes +
                               max_value_bytes;
    return static_cast<unsigned>((record + blockBytes - 1) / blockBytes);
}

std::uint64_t
ObliviousKVStore::slotsFor(
    const serve::ShardedSecureMemory::Options &serve_opts,
    std::size_t max_key_bytes, std::size_t max_value_bytes)
{
    serve::ShardedSecureMemory probe(serve_opts);
    return probe.capacityBlocks() /
           slotStrideFor(slotBlocksFor(max_key_bytes, max_value_bytes),
                         probe.numShards());
}

ObliviousKVStore::ObliviousKVStore(const Options &options)
    : mem_(std::make_unique<serve::ShardedSecureMemory>(options.serve)),
      mode_(options.index), capacityKeys_(options.capacityKeys),
      maxKeyBytes_(options.maxKeyBytes),
      maxValueBytes_(options.maxValueBytes),
      blocksPerSlot_(slotBlocksFor(options.maxKeyBytes,
                                   options.maxValueBytes)),
      slotStride_(slotStrideFor(blocksPerSlot_, mem_->numShards())),
      slotCount_(mem_->capacityBlocks() / slotStride_),
      opDeadline_(options.opDeadline),
      rng_(options.seed * 1000003 + 17)
{
    if (capacityKeys_ == 0)
        throw std::invalid_argument("kv: capacityKeys must be > 0");
    if (maxKeyBytes_ == 0 || maxKeyBytes_ > 0xffff)
        throw std::invalid_argument("kv: maxKeyBytes outside [1, 65535]");
    if (slotCount_ < capacityKeys_)
        throw std::invalid_argument(
            "kv: service capacity provides " +
            std::to_string(slotCount_) + " slots of " +
            std::to_string(slotStride_) + " blocks; need >= " +
            std::to_string(capacityKeys_) + " (capacityKeys)");

    freeSlots_.reserve(capacityKeys_);
    for (std::uint64_t s = 0; s < capacityKeys_; ++s)
        freeSlots_.push_back(s);

    kv_.setCounter("kv.capacity_keys", capacityKeys_);
    kv_.setCounter("kv.slots", slotCount_);
    kv_.setCounter("kv.blocks_per_slot", blocksPerSlot_);
    kv_.setGauge("kv.live_keys", 0.0);
}

ObliviousKVStore::~ObliviousKVStore() = default;

std::uint64_t
ObliviousKVStore::liveKeys() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return mode_ == KvIndexMode::Oblivious ? index_.size()
                                           : leakyIndex_.size();
}

util::MetricsRegistry
ObliviousKVStore::metrics()
{
    util::MetricsRegistry out = mem_->metrics();
    {
        std::lock_guard<std::mutex> lk(mu_);
        kv_.setGauge("kv.live_keys",
                     static_cast<double>(mode_ == KvIndexMode::Oblivious
                                             ? index_.size()
                                             : leakyIndex_.size()));
        out.merge(kv_);
    }
    return out;
}

void
ObliviousKVStore::validateKey(const std::string &key) const
{
    if (key.empty() || key.size() > maxKeyBytes_)
        throw KeyTooLargeError(key.size(), maxKeyBytes_);
}

std::vector<BlockData>
ObliviousKVStore::encodeRecord(const std::string &key,
                               const std::string &value) const
{
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(blocksPerSlot_) * blockBytes, 0);
    putU16(bytes.data(), static_cast<std::uint16_t>(key.size()));
    putU32(bytes.data() + 2, static_cast<std::uint32_t>(value.size()));
    std::memcpy(bytes.data() + headerBytes, key.data(), key.size());
    std::memcpy(bytes.data() + headerBytes + key.size(), value.data(),
                value.size());

    std::vector<BlockData> blocks(blocksPerSlot_);
    for (unsigned b = 0; b < blocksPerSlot_; ++b)
        std::memcpy(blocks[b].data(), bytes.data() + b * blockBytes,
                    blockBytes);
    return blocks;
}

std::optional<std::pair<std::string, std::string>>
ObliviousKVStore::decodeRecord(const std::vector<BlockData> &blocks) const
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(blocks.size() * blockBytes);
    for (const BlockData &b : blocks)
        bytes.insert(bytes.end(), b.begin(), b.end());

    const std::uint16_t key_len = getU16(bytes.data());
    const std::uint32_t value_len = getU32(bytes.data() + 2);
    if (key_len == 0 || key_len > maxKeyBytes_ ||
        value_len > maxValueBytes_)
        return std::nullopt; // Dummy or garbage record.
    if (headerBytes + key_len + value_len > bytes.size())
        return std::nullopt;

    std::string key(reinterpret_cast<const char *>(bytes.data()) +
                        headerBytes,
                    key_len);
    std::string value(reinterpret_cast<const char *>(bytes.data()) +
                          headerBytes + key_len,
                      value_len);
    return std::make_pair(std::move(key), std::move(value));
}

std::vector<BlockData>
ObliviousKVStore::runSlot(std::uint64_t slot, unsigned blocks,
                          const std::vector<BlockData> *payload)
{
    std::vector<serve::BlockRequest> reqs(blocks);
    for (unsigned b = 0; b < blocks; ++b) {
        reqs[b].block = blockOf(slot, b);
        reqs[b].write = payload != nullptr;
        if (payload != nullptr)
            reqs[b].data = (*payload)[b];
    }
    return mem_->submitGroup(std::move(reqs))->wait(opDeadline_);
}

/* ---- public API ---------------------------------------------------- */

void
ObliviousKVStore::put(const std::string &key, const std::string &value)
{
    std::vector<PlannedOp> ops(1);
    ops[0].kind = OpKind::Put;
    ops[0].key = key;
    ops[0].value = value;
    runOps(ops);
}

std::optional<std::string>
ObliviousKVStore::get(const std::string &key)
{
    std::vector<PlannedOp> ops(1);
    ops[0].kind = OpKind::Get;
    ops[0].key = key;
    runOps(ops);
    return ops[0].result;
}

bool
ObliviousKVStore::erase(const std::string &key)
{
    std::vector<PlannedOp> ops(1);
    ops[0].kind = OpKind::Erase;
    ops[0].key = key;
    runOps(ops);
    return ops[0].found;
}

std::vector<std::optional<std::string>>
ObliviousKVStore::multiGet(const std::vector<std::string> &keys)
{
    std::vector<PlannedOp> ops(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ops[i].kind = OpKind::Get;
        ops[i].key = keys[i];
    }
    runOps(ops);

    std::vector<std::optional<std::string>> out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        out[i] = std::move(ops[i].result);
    return out;
}

void
ObliviousKVStore::multiPut(
    const std::vector<std::pair<std::string, std::string>> &items)
{
    std::vector<PlannedOp> ops(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        ops[i].kind = OpKind::Put;
        ops[i].key = items[i].first;
        ops[i].value = items[i].second;
    }
    runOps(ops);
}

/* ---- oblivious execution ------------------------------------------- */

void
ObliviousKVStore::runOps(std::vector<PlannedOp> &ops)
{
    for (const PlannedOp &op : ops) {
        validateKey(op.key);
        if (op.kind == OpKind::Put && op.value.size() > maxValueBytes_)
            throw ValueTooLargeError(op.value.size(), maxValueBytes_);
    }

    if (mode_ == KvIndexMode::LeakyBaseline) {
        runOpsLeaky(ops);
        return;
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        kv_.incCounter("kv.batches");
        kv_.histogram("kv.batch_size").sample(ops.size());
    }

    // Ordered rounds: a key repeated inside one batch runs in a later
    // round, so same-key ops apply in submission order.
    std::vector<bool> done(ops.size(), false);
    std::size_t remaining = ops.size();
    while (remaining > 0) {
        std::unordered_set<std::string> in_round;
        std::vector<PlannedOp *> chunk;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (done[i] || in_round.count(ops[i].key))
                continue;
            in_round.insert(ops[i].key);
            chunk.push_back(&ops[i]);
            done[i] = true;
            --remaining;
        }
        runChunk(chunk);
    }
}

void
ObliviousKVStore::planChunk(std::vector<PlannedOp *> &chunk,
                            std::unique_lock<std::mutex> &lk)
{
    // Admit: wait until none of our keys is in flight, so ops on one
    // key serialize.  Nothing else is held while waiting.
    cv_.wait(lk, [&] {
        for (const PlannedOp *op : chunk)
            if (inflightKeys_.count(op->key))
                return false;
        return true;
    });

    for (PlannedOp *op : chunk) {
        inflightKeys_.insert(op->key);
        auto it = index_.find(op->key);
        op->hit = it != index_.end();
        if (op->hit) {
            op->slot = it->second;
        } else if (op->kind == OpKind::Put && !freeSlots_.empty()) {
            // Insert: take a uniform free slot for the key's lifetime.
            op->insert = true;
            const std::size_t i = static_cast<std::size_t>(
                rng_.nextBelow(freeSlots_.size()));
            op->slot = freeSlots_[i];
            freeSlots_[i] = freeSlots_.back();
            freeSlots_.pop_back();
        } else {
            op->full = op->kind == OpKind::Put;
            op->slot = rng_.nextBelow(slotCount_);
        }
    }
}

void
ObliviousKVStore::commitChunk(std::vector<PlannedOp *> &chunk)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (PlannedOp *op : chunk) {
        inflightKeys_.erase(op->key);
        switch (op->kind) {
          case OpKind::Get:
            kv_.incCounter("kv.gets");
            break;
          case OpKind::Put:
            kv_.incCounter("kv.puts");
            if (op->insert) {
                index_[op->key] = op->slot;
                kv_.incCounter("kv.inserts");
            } else if (op->hit) {
                kv_.incCounter("kv.updates");
            } else {
                kv_.incCounter("kv.store_full_errors");
            }
            break;
          case OpKind::Erase:
            kv_.incCounter("kv.erases");
            if (op->hit) {
                index_.erase(op->key);
                freeSlots_.push_back(op->slot);
            }
            break;
        }
        if (!op->hit && !op->insert)
            kv_.incCounter("kv.dummy_ops");
        if (op->mismatch)
            kv_.incCounter("kv.key_mismatches");
        kv_.incCounter(op->hit ? "kv.hits" : "kv.misses");
        kv_.incCounter("kv.blocks_read", blocksPerSlot_);
        kv_.incCounter("kv.blocks_written", blocksPerSlot_);
    }
    cv_.notify_all();
}

void
ObliviousKVStore::rollbackChunk(std::vector<PlannedOp *> &chunk)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (PlannedOp *op : chunk) {
        inflightKeys_.erase(op->key);
        if (op->insert)
            freeSlots_.push_back(op->slot);
    }
    cv_.notify_all();
}

void
ObliviousKVStore::runChunk(std::vector<PlannedOp *> &chunk)
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        planChunk(chunk, lk);
    }

    // Phase R: every op's slot reads as one group.  An error here has
    // written nothing, so the chunk commits nothing.
    // Phase W payloads: a record, an empty record, or nullopt for a
    // cover write that the shard rewrites in place.
    std::vector<std::optional<std::vector<BlockData>>> payloads(
        chunk.size());
    try {
        std::vector<serve::BlockRequest> reads;
        reads.reserve(chunk.size() * blocksPerSlot_);
        for (PlannedOp *op : chunk)
            for (unsigned b = 0; b < blocksPerSlot_; ++b)
                reads.push_back({blockOf(op->slot, b), false, std::nullopt});
        const std::vector<BlockData> got =
            mem_->submitGroup(std::move(reads))->wait(opDeadline_);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            PlannedOp *op = chunk[i];
            const auto first = got.begin() + i * blocksPerSlot_;
            const std::vector<BlockData> blocks(first,
                                                first + blocksPerSlot_);
            if (op->hit) {
                auto rec = decodeRecord(blocks);
                if (!rec || rec->first != op->key) {
                    // Corrupt record (e.g. byzantine damage): count
                    // it, serve a miss, but keep the access sequence.
                    op->mismatch = true;
                } else {
                    op->found = true;
                    if (op->kind == OpKind::Get)
                        op->result = rec->second;
                }
            }
            if (op->kind == OpKind::Put && !op->full)
                payloads[i] = encodeRecord(op->key, op->value);
            else if (op->kind == OpKind::Erase && op->hit)
                payloads[i].emplace(blocksPerSlot_, BlockData{});
        }
    } catch (...) {
        rollbackChunk(chunk);
        throw;
    }

    // Phase W: every op writes exactly blocksPerSlot_ blocks of the
    // slot it read, as one group.  Once they are submitted the op has
    // taken effect: commit, then report any error.
    std::exception_ptr error;
    try {
        std::vector<serve::BlockRequest> writes;
        writes.reserve(chunk.size() * blocksPerSlot_);
        for (std::size_t i = 0; i < chunk.size(); ++i)
            for (unsigned b = 0; b < blocksPerSlot_; ++b) {
                std::optional<BlockData> data;
                if (payloads[i])
                    data = (*payloads[i])[b];
                writes.push_back(
                    {blockOf(chunk[i]->slot, b), true, std::move(data)});
            }
        mem_->submitGroup(std::move(writes))->wait(opDeadline_);
    } catch (...) {
        error = std::current_exception();
    }

    commitChunk(chunk);
    if (error)
        std::rethrow_exception(error);
    for (const PlannedOp *op : chunk)
        if (op->full)
            throw KvStoreFullError(op->key);
}

/* ---- leaky positive control ---------------------------------------- */

void
ObliviousKVStore::runOpsLeaky(std::vector<PlannedOp> &ops)
{
    // Everything a real (non-oblivious) hash-table-over-blocks server
    // would do: static slots, hit-length reads, nothing on a miss.
    // Sequential and fully serialized -- this mode exists only as the
    // FAIL control for the calibrated obliviousness gate.
    std::lock_guard<std::mutex> lk(mu_);
    kv_.incCounter("kv.batches");
    kv_.histogram("kv.batch_size").sample(ops.size());

    for (PlannedOp &op : ops) {
        auto it = leakyIndex_.find(op.key);
        op.hit = it != leakyIndex_.end();
        kv_.incCounter(op.hit ? "kv.hits" : "kv.misses");
        switch (op.kind) {
          case OpKind::Get: {
            kv_.incCounter("kv.gets");
            if (!op.hit)
                break; // Miss: zero accesses -- the leak.
            std::vector<BlockData> blocks =
                runSlot(it->second.slot, it->second.blocks, nullptr);
            kv_.incCounter("kv.blocks_read", it->second.blocks);
            std::vector<BlockData> padded = blocks;
            padded.resize(blocksPerSlot_);
            if (auto rec = decodeRecord(padded);
                rec && rec->first == op.key) {
                op.found = true;
                op.result = rec->second;
            }
            break;
          }
          case OpKind::Put: {
            kv_.incCounter("kv.puts");
            std::uint64_t slot;
            if (op.hit)
                slot = it->second.slot;
            else {
                if (freeSlots_.empty())
                    throw KvStoreFullError(op.key);
                slot = freeSlots_.back();
                freeSlots_.pop_back();
            }
            const unsigned used = static_cast<unsigned>(
                (headerBytes + op.key.size() + op.value.size() +
                 blockBytes - 1) /
                blockBytes);
            const auto payload = encodeRecord(op.key, op.value);
            runSlot(slot, used, &payload);
            kv_.incCounter("kv.blocks_written", used);
            kv_.incCounter(op.hit ? "kv.updates" : "kv.inserts");
            leakyIndex_[op.key] = LeakyEntry{slot, used};
            break;
          }
          case OpKind::Erase:
            kv_.incCounter("kv.erases");
            if (op.hit) {
                op.found = true;
                freeSlots_.push_back(it->second.slot);
                leakyIndex_.erase(it);
            }
            break;
        }
    }
}

} // namespace secdimm::app
