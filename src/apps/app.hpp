// Benchmark application interface.
//
// The paper evaluates six kernels representative of near-sensor computing
// and embedded machine learning: JACOBI, KNN, PCA, DWT, SVM and CONV
// (Section V-A). The registry has since grown the ROADMAP's follow-on
// workloads — FFT, IIR and MLP — through the same seam. Each application
// here:
//
//   * declares its tunable variable groups ("signals" — program variables
//     or arrays whose FP format the tuning tool controls) as a SignalTable
//     with dense SignalIds in declaration order;
//   * generates deterministic synthetic inputs per input-set index (the
//     tuner's statistical refinement runs over several input sets);
//   * writes its kernel once, as `template <class Ctx> kernel(Ctx&,
//     const TypeConfig&)` under an arbitrary per-signal format assignment,
//     inserting explicit casts where differently-typed values meet (the
//     type system forbids implicit mixing), and tagging its vectorizable
//     sections.
//
// KernelApp<Derived> instantiates that kernel twice and App::run picks one
// per call: on sim::TpContext for the traced runs — the one the virtual
// platform measures, and the static analysis' shadow run — and on
// sim::PlainContext, nothing recorded, for the binary64 golden reference,
// every precision-tuning trial and the final mixed-format build. Both
// compute on FlexFloatDyn values rounded by tp::arith alone, so they give
// bit-identical outputs and FlexFloat statistics under every backend
// override, arith::ScopedBinary64 included.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/signal_table.hpp"
#include "sim/context.hpp"
#include "sim/plain_context.hpp"
#include "types/format.hpp"

namespace tp::apps {

/// Per-signal format assignment: a flat array indexed by SignalId, in the
/// app's declaration order. Value-cheap (a handful of two-byte
/// descriptors), equality-comparable, and hashable — the key the trial
/// memoization cache (tuning/eval_engine.hpp) is built on. Signal names
/// appear only at the config-file boundary (tuning/config_io.hpp), which
/// translates them through the app's SignalTable.
class TypeConfig {
public:
    TypeConfig() = default;

    /// `signal_count` slots, all set to `fill`.
    explicit TypeConfig(std::size_t signal_count, FpFormat fill = kBinary32)
        : formats_(signal_count, fill) {}

    [[nodiscard]] std::size_t size() const noexcept { return formats_.size(); }

    void set(SignalId id, FpFormat format) { formats_.at(id) = format; }

    /// Bounds-checked O(1) lookup; throws std::out_of_range past size().
    /// The kernels use this (a handful of lookups per run, so the check is
    /// free) — an undersized or wrong-app config fails loudly, as the old
    /// name-keyed map did.
    [[nodiscard]] FpFormat at(SignalId id) const { return formats_.at(id); }

    /// Unchecked O(1) lookup, for callers that validated the size.
    [[nodiscard]] FpFormat operator[](SignalId id) const noexcept {
        return formats_[id];
    }

    [[nodiscard]] const std::vector<FpFormat>& formats() const noexcept {
        return formats_;
    }

    friend bool operator==(const TypeConfig&, const TypeConfig&) = default;

    /// FNV-1a over the (exp_bits, mant_bits) byte pairs.
    [[nodiscard]] std::uint64_t hash() const noexcept {
        std::uint64_t h = 14695981039346656037ULL;
        for (const FpFormat f : formats_) {
            h = (h ^ f.exp_bits) * 1099511628211ULL;
            h = (h ^ f.mant_bits) * 1099511628211ULL;
        }
        return h;
    }

private:
    std::vector<FpFormat> formats_;
};

class App {
public:
    virtual ~App() = default;

    [[nodiscard]] virtual std::string_view name() const = 0;

    /// Interned signal declarations; ids are declaration-order positions.
    /// Shared (immutable) between an app and all its clones.
    [[nodiscard]] const SignalTable& signal_table() const noexcept {
        return *table_;
    }

    [[nodiscard]] const std::vector<SignalSpec>& signals() const noexcept {
        return table_->specs();
    }

    /// Deep copy, including any prepared workload. The parallel tuning
    /// engine gives each worker thread its own clone so trial evaluations
    /// never share mutable state.
    [[nodiscard]] virtual std::unique_ptr<App> clone() const = 0;

    /// Regenerates the workload for the given input set (deterministic).
    virtual void prepare(unsigned input_set) = 0;

    /// Executes the kernel under `config` and returns the program output
    /// (the sequence the quality constraint is evaluated on). A traced
    /// `ctx` records the run; an untraced one only selects the plain
    /// instantiation (see KernelApp).
    virtual std::vector<double> run(sim::TpContext& ctx, const TypeConfig& config) = 0;

    /// Same format for every signal (e.g. the binary32 baseline).
    [[nodiscard]] TypeConfig uniform_config(FpFormat format) const {
        return TypeConfig{table_->size(), format};
    }

    /// Reference output: binary64 throughout, no tracing.
    [[nodiscard]] std::vector<double> golden(unsigned input_set);

protected:
    /// Concrete apps declare their signals here; the declaration order
    /// fixes the SignalIds their kernel uses as compile-time constants.
    explicit App(std::vector<SignalSpec> specs)
        : table_(std::make_shared<const SignalTable>(std::move(specs))) {}

    App(const App&) = default;
    App& operator=(const App&) = default;

private:
    std::shared_ptr<const SignalTable> table_;
};

/// Names of all registered applications: the paper's six kernels in the
/// paper's order, then the follow-on workloads (fft, iir, mlp).
[[nodiscard]] const std::vector<std::string>& app_names();

/// Factory; throws std::out_of_range for unknown names.
[[nodiscard]] std::unique_ptr<App> make_app(std::string_view name);

/// All registered applications, in app_names() order.
[[nodiscard]] std::vector<std::unique_ptr<App>> make_all_apps();

/// The one dispatch between a kernel's two instantiations. `Derived`
/// provides
///     template <class Ctx>
///     std::vector<double> kernel(Ctx& ctx, const TypeConfig& config);
/// written against Ctx's surface (Ctx::Value, Ctx::Array, constant,
/// from_int, make_array, int_ops, branch, loop_iteration, vector_region).
/// A traced context runs it on itself; an untraced one runs it on a local
/// sim::PlainContext.
template <class Derived>
class KernelApp : public App {
public:
    std::vector<double> run(sim::TpContext& ctx, const TypeConfig& config) final {
        Derived& self = static_cast<Derived&>(*this);
        if (ctx.tracing()) return self.kernel(ctx, config);
        sim::PlainContext plain;
        return self.kernel(plain, config);
    }

private:
    friend Derived; // only the app it instantiates derives from it
    explicit KernelApp(std::vector<SignalSpec> specs) : App(std::move(specs)) {}
};

/// Casts `v` to `format` unless it already has it (emitting the cast
/// instruction a mixed-format expression requires).
template <class Value>
[[nodiscard]] inline Value to(const Value& v, FpFormat format) {
    return v.format() == format ? v : v.cast_to(format);
}

} // namespace tp::apps
