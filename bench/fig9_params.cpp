// Reproduces Fig. 9: the table of simulation parameters, with the values we
// reconstructed (DESIGN.md) and the values each bench actually uses.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  auto config = bench::default_tree_config();
  bench::apply_common_flags(flags, config);
  bench::BenchReport report("fig9_params", flags);
  flags.finish();
  bench::exit_if_invalid(config.validate());

  util::print_banner("Fig. 9 — simulation parameters");
  util::Table table({"Parameter", "Value", "Source"});
  auto row = [&](const char* name, std::string value, const char* src) {
    table.add_row({name, std::move(value), src});
  };

  row("servers (N)", util::Table::num(static_cast<long long>(
                        config.tree.server_count)), "paper: 5");
  row("active servers (k)", util::Table::num(static_cast<long long>(
                               config.k_active)), "paper: 3");
  row("honeypot probability p", util::Table::num(0.4, 2), "(N-k)/N");
  row("epoch length m", util::Table::num(config.epoch_seconds, 0) + " s",
      "reconstructed: 10 s");
  row("bottleneck capacity",
      util::Table::num(config.tree.bottleneck_bps / 1e6, 0) + " Mb/s",
      "reconstructed: 10 Mb/s");
  row("leaf nodes", util::Table::num(static_cast<long long>(
                       config.tree.leaf_count)),
      "paper: 1000 (bench default reduced; --leaves)");
  row("clients", util::Table::num(static_cast<long long>(config.n_clients)),
      "paper Fig. 10: 75");
  row("total legitimate load",
      util::Table::percent(config.legit_load, 0) + " of bottleneck",
      "paper: ~90%");
  row("attackers", util::Table::num(static_cast<long long>(
                      config.n_attackers)), "paper: 25 (Fig. 8/10)");
  row("attack rate per host",
      util::Table::num(config.attacker_rate_bps / 1e6, 1) + " Mb/s",
      "paper: 1.0 (Fig. 10), 0.5 (Fig. 11)");
  row("packet size", util::Table::num(static_cast<long long>(
                        config.packet_size)) + " B", "CBR");
  row("run length", util::Table::num(config.sim_seconds, 0) + " s",
      "paper: 100 s");
  row("attack window",
      util::Table::num(config.attack_start, 0) + " - " +
          util::Table::num(config.attack_end, 0) + " s",
      "paper: 5 - 95 s");
  row("clock sync bound (delta)",
      util::Table::num(config.delta.to_seconds() * 1000, 0) + " ms",
      "Section 4");
  row("delay estimate (gamma)",
      util::Table::num(config.gamma.to_seconds() * 1000, 0) + " ms",
      "Section 4");
  row("attacker locations", "close / evenly distributed / far",
      "Section 8.4.1");
  row("spoofing", "uniform random source per packet", "Section 3");
  table.print();

  report.add_counter("servers", config.tree.server_count);
  report.add_counter("k_active", config.k_active);
  report.add_counter("leaves", static_cast<double>(config.tree.leaf_count));
  report.add_counter("clients", config.n_clients);
  report.add_counter("attackers", config.n_attackers);
  report.write();
  return 0;
}
