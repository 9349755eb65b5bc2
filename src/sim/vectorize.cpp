#include "sim/vectorize.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <tuple>
#include <vector>

namespace tp::sim {
namespace {

/// Key identifying operations that may share a SIMD group.
struct GroupKey {
    InstrKind kind = InstrKind::FpArith;
    FpOp op = FpOp::Add;
    FpFormat fmt{8, 23};
    std::uint32_t stream = 0;

    [[nodiscard]] auto tie() const noexcept {
        return std::make_tuple(static_cast<int>(kind), static_cast<int>(op),
                               fmt.exp_bits, fmt.mant_bits, stream);
    }
    friend bool operator<(const GroupKey& a, const GroupKey& b) noexcept {
        return a.tie() < b.tie();
    }
    friend bool operator==(const GroupKey&, const GroupKey&) = default;
};

/// The packing window: rewrites an instruction stream so that groupable
/// element operations inside tagged vector regions become adjacent SIMD
/// groups, preserving dependency order. This mirrors what a sub-word
/// vectorizing compiler does with an unrolled loop body: packs independent
/// lanes, keeps serial chains scalar.
///
/// It reads one instruction at a time, in emission order, and hands `Sink`
/// the rewritten stream: `scalar(instr)` for each scalar and
/// `group(group, members, count)` for each SIMD group, whose indices the
/// sink fills if it needs them.
template <class Sink>
class Vectorizer {
public:
    /// `ids` presizes the pending table (a program's value_count); it grows
    /// past it on demand.
    Vectorizer(Sink sink, std::size_t ids) : sink_(sink), pending_(ids, kNone) {}

    [[nodiscard]] Sink& sink() noexcept { return sink_; }

    /// Whether a bucket is open, i.e. process() may still emit something
    /// read earlier.
    [[nodiscard]] bool open() const noexcept {
        for (const Bucket& bucket : buckets_) {
            if (bucket.size > 0) return true;
        }
        return false;
    }

    void process(const Instr& instr) {
        if (!instr.vectorizable) {
            // Loop plumbing (int/branch) passes through without disturbing
            // open groups; any other scalar instruction may consume pending
            // results, so its producers must be flushed first.
            if (instr.kind == InstrKind::IntAlu || instr.kind == InstrKind::Branch) {
                emit_scalar(instr);
                return;
            }
            flush_producers_of(instr);
            // A scalar FP instruction outside the region ends the region's
            // schedule for safety: flush everything.
            flush_all();
            emit_scalar(instr);
            return;
        }

        const int lanes = lanes_for(instr);
        if (lanes <= 1 || !groupable(instr)) {
            flush_producers_of(instr);
            emit_scalar(instr);
            return;
        }

        const GroupKey key = key_of(instr);
        std::int32_t slot = open_slot(key);
        // A member must not consume a value pending in its own bucket —
        // that would fuse a serial chain into one SIMD slot. Commit the
        // open bucket and start a fresh one with this instruction.
        if (slot != kNone && consumes_from(instr, slot)) {
            commit(slot);
            slot = kNone;
        }
        if (slot == kNone) slot = open_bucket(key);
        if (instr.dst >= 0) pending(instr.dst) = slot;
        Bucket& bucket = buckets_[static_cast<std::size_t>(slot)];
        bucket.members[static_cast<std::size_t>(bucket.size++)] = instr;
        // Members of one key agree on their lane count, so a bucket commits
        // exactly when full; `>=` keeps a hand-built trace that mixes access
        // widths within one key inside the fixed capacity.
        if (bucket.size >= lanes) commit(slot);
    }

    /// Commits open buckets in ascending key order.
    void flush_all() {
        for (;;) {
            std::size_t first = buckets_.size();
            for (std::size_t s = 0; s < buckets_.size(); ++s) {
                if (buckets_[s].size > 0 &&
                    (first == buckets_.size() || buckets_[s].key < buckets_[first].key)) {
                    first = s;
                }
            }
            if (first == buckets_.size()) return;
            commit(static_cast<std::int32_t>(first));
        }
    }

private:
    static constexpr std::int32_t kNone = -1;
    static constexpr int kMaxLanes = 4; // 4 x 8-bit lanes in a 32-bit slice

    /// One bucket slot. An open bucket collects members of one key until it
    /// fills or a consumer forces it out; an empty slot is free for the next
    /// key that opens. At most one bucket per key is open.
    struct Bucket {
        GroupKey key;
        std::array<Instr, kMaxLanes> members{};
        int size = 0; // 0 = free slot
    };

    [[nodiscard]] static bool groupable(const Instr& instr) noexcept {
        switch (instr.kind) {
        case InstrKind::FpArith:
            // Only add/sub/mul exist as SIMD datapaths (paper, Fig. 3).
            return instr.op == FpOp::Add || instr.op == FpOp::Sub ||
                   instr.op == FpOp::Mul;
        case InstrKind::Load:
        case InstrKind::Store:
            return instr.bytes > 0 && instr.bytes < 4;
        default:
            return false;
        }
    }

    [[nodiscard]] static int lanes_for(const Instr& instr) noexcept {
        if (instr.kind == InstrKind::Load || instr.kind == InstrKind::Store) {
            return instr.bytes > 0 ? 4 / instr.bytes : 1;
        }
        return simd_lanes_for(instr.fmt);
    }

    [[nodiscard]] static GroupKey key_of(const Instr& instr) noexcept {
        GroupKey key;
        key.kind = instr.kind;
        key.fmt = instr.fmt;
        if (instr.kind == InstrKind::FpArith) {
            key.op = instr.op;
        } else {
            key.stream = instr.stream;
        }
        return key;
    }

    /// Slot of the open bucket for `key`, or kNone. Only a handful of
    /// buckets are ever open at once, so a linear scan is the fast lookup.
    [[nodiscard]] std::int32_t open_slot(const GroupKey& key) const noexcept {
        for (std::size_t s = 0; s < buckets_.size(); ++s) {
            if (buckets_[s].size > 0 && buckets_[s].key == key) {
                return static_cast<std::int32_t>(s);
            }
        }
        return kNone;
    }

    /// Claims a free slot for `key`; the caller adds its first member.
    std::int32_t open_bucket(const GroupKey& key) {
        std::size_t s = 0;
        while (s < buckets_.size() && buckets_[s].size > 0) ++s;
        if (s == buckets_.size()) buckets_.emplace_back();
        buckets_[s].key = key;
        return static_cast<std::int32_t>(s);
    }

    /// Slot of the open bucket that will produce SSA id `id`, or kNone.
    [[nodiscard]] std::int32_t pending_slot(std::int32_t id) const noexcept {
        const auto index = static_cast<std::size_t>(id);
        return index < pending_.size() ? pending_[index] : kNone;
    }

    /// Pending-table entry of SSA id `id` (>= 0), for writing. Ids beyond
    /// the table (a stream, or a hand-built program whose ids exceed
    /// value_count) grow it instead of indexing past it.
    std::int32_t& pending(std::int32_t id) {
        const auto index = static_cast<std::size_t>(id);
        if (index >= pending_.size()) {
            pending_.resize(std::max(index + 1, 2 * pending_.size()), kNone);
        }
        return pending_[index];
    }

    [[nodiscard]] bool consumes_from(const Instr& instr, std::int32_t slot) const {
        for (std::int32_t src : {instr.src1, instr.src2, instr.src3}) {
            if (src >= 0 && pending_slot(src) == slot) return true;
        }
        return false;
    }

    void flush_producers_of(const Instr& instr) {
        for (std::int32_t src : {instr.src1, instr.src2, instr.src3}) {
            if (src < 0) continue;
            const std::int32_t slot = pending_slot(src);
            if (slot != kNone) commit(slot);
        }
    }

    /// Emits the bucket's members: a single member stays scalar; several
    /// members become one SIMD group (partially filled groups are legal —
    /// the unit simply silences the unused lanes). Producers pending in
    /// other buckets are committed first so the output stays in dependency
    /// order.
    void commit(std::int32_t slot) {
        const auto s = static_cast<std::size_t>(slot);
        const int size = buckets_[s].size;
        assert(size > 0 && "pending entries name open buckets only");
        buckets_[s].size = 0;
        for (int k = 0; k < size; ++k) {
            const Instr& m = buckets_[s].members[static_cast<std::size_t>(k)];
            if (m.dst >= 0) pending(m.dst) = kNone;
        }
        // Committing producers only closes buckets, never opens one, so
        // this slot's members stay in place across the recursion.
        for (int k = 0; k < size; ++k) {
            flush_producers_of(buckets_[s].members[static_cast<std::size_t>(k)]);
        }
        const Bucket& bucket = buckets_[s];
        if (size == 1) {
            Instr scalar = bucket.members.front();
            scalar.simd_group = 0;
            sink_.scalar(scalar);
            return;
        }

        SimdGroup group;
        group.lanes = size;
        group.kind = bucket.key.kind;
        group.op = bucket.key.op;
        group.fmt = bucket.key.fmt;
        for (int k = 0; k < size; ++k) {
            group.bytes += bucket.members[static_cast<std::size_t>(k)].bytes;
        }
        sink_.group(group, bucket.members.data(), static_cast<std::size_t>(size));
    }

    void emit_scalar(const Instr& instr) {
        assert(instr.simd_group == 0);
        sink_.scalar(instr);
    }

    Sink sink_;
    std::vector<Bucket> buckets_;
    /// SSA id -> slot of the open bucket that will produce it, or kNone.
    std::vector<std::int32_t> pending_;
};

/// vectorize()'s sink: writes the rewritten trace back over the one being
/// read, in place. Every instruction read is emitted exactly once, and only
/// after it was read, so the write cursor never passes the read cursor;
/// vectorize() copies the instruction being read out first.
struct WriteBack {
    TraceProgram* program;
    std::size_t out = 0;      // write cursor into program->instrs
    std::size_t read_end = 0; // instructions read so far

    void scalar(const Instr& instr) noexcept { write(instr); }

    void group(SimdGroup group, const Instr* members, std::size_t count) {
        const auto id = static_cast<std::uint32_t>(program->groups.size() + 1);
        group.first_index = out;
        for (std::size_t k = 0; k < count; ++k) {
            Instr m = members[k];
            m.simd_group = id;
            write(m);
        }
        group.last_index = out - 1;
        program->groups.push_back(group);
    }

    void write(const Instr& instr) noexcept {
        assert(out < read_end && "in-place rewrite must trail the read cursor");
        program->instrs[out++] = instr;
    }
};

/// CostStream's sink: the rewritten stream goes straight to the model.
struct ToModel {
    CostModel* model;

    void scalar(const Instr& instr) { model->scalars(&instr, &instr + 1); }
    void group(const SimdGroup& group, const Instr* members, std::size_t count) {
        model->group(group, members, count);
    }
};

} // namespace

int simd_lanes_for(FpFormat format) noexcept {
    const int width = format.width_bits();
    if (width <= 8) return 4;
    if (width <= 16) return 2;
    return 1;
}

void vectorize(TraceProgram& program) {
    program.groups.clear();
    Vectorizer<WriteBack> window{WriteBack{&program}, program.value_count};
    Trace& instrs = program.instrs;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instr instr = instrs[i];
        window.sink().read_end = i + 1;
        window.process(instr);
    }
    window.flush_all();
    assert(window.sink().out == instrs.size());
}

class CostStream::Window : public Vectorizer<ToModel> {
public:
    using Vectorizer::Vectorizer;
};

CostStream::CostStream(bool simd)
    : model_(fpu::default_energy_model(), CoreParams{}),
      window_(simd ? std::make_unique<Window>(ToModel{&model_}, 0) : nullptr) {}

CostStream::~CostStream() = default;

void CostStream::feed(std::span<const Instr> instrs) {
    if (window_ != nullptr &&
        (window_->open() ||
         std::any_of(instrs.begin(), instrs.end(),
                     [](const Instr& instr) { return instr.vectorizable; }))) {
        for (const Instr& instr : instrs) window_->process(instr);
        return;
    }
    model_.scalars(instrs.data(), instrs.data() + instrs.size());
}

RunReport CostStream::finish() {
    if (window_ != nullptr) window_->flush_all();
    return model_.finish();
}

} // namespace tp::sim
