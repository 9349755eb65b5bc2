#include "harness.hpp"

namespace tp::bench {

sim::RunReport simulate_app(apps::App& app, const apps::TypeConfig& config,
                            bool simd, unsigned input_set) {
    app.prepare(input_set);
    sim::TpContext ctx;
    (void)app.run(ctx, config);
    return sim::simulate(ctx.take_program(simd));
}

sim::RunReport simulate_baseline(apps::App& app, unsigned input_set) {
    return simulate_app(app, app.uniform_config(kBinary32), /*simd=*/false,
                        input_set);
}

tuning::SearchOptions bench_search_options(double epsilon, TypeSystemKind kind) {
    tuning::SearchOptions options;
    options.epsilon = epsilon;
    options.type_system = TypeSystem{kind};
    options.input_sets = {0, 1, 2};
    return options;
}

Experiment run_experiment(const std::string& app_name, double epsilon,
                          TypeSystemKind type_system, bool simd) {
    Experiment experiment;
    experiment.app = app_name;
    experiment.epsilon = epsilon;
    experiment.type_system = type_system;

    const auto app = apps::make_app(app_name);
    experiment.tuning =
        tuning::distributed_search(*app, bench_search_options(epsilon, type_system));
    experiment.baseline = simulate_baseline(*app);
    experiment.tuned = simulate_app(*app, experiment.tuning.type_config(), simd);
    return experiment;
}

} // namespace tp::bench
