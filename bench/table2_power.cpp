// Regenerates Table II (per-block area / leakage / dynamic power / fmax /
// max power in GF22 FDX) and the Fig. 5 area accounting.
#include "power/power_model.hpp"
#include "profile/profile.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"

int main(int argc, char** argv) {
  namespace report = hulkv::report;
  namespace power = hulkv::power;
  const report::BenchOptions options = report::bench_args_or_exit(argc, argv);
  hulkv::profile::configure(options);
  hulkv::telemetry::configure(options);
  const power::PowerModel model;

  report::MetricsReport rep("table2_power");
  rep.add_note("Table II — per-block area, leakage, dynamic power, fmax "
               "and max power in GF22 FDX (typical corner, 0.8 V, 25 C)");

  report::Table& blocks = rep.add_table(
      "per-block power and area",
      {"block", "area_mm2", "leakage_mw", "dynamic_uw_mhz", "fmax_mhz",
       "max_power_mw"});
  for (const power::BlockPower* block : model.blocks()) {
    blocks.add_row({report::Value::text(block->name),
                    report::Value::number(block->area_mm2, 2),
                    report::Value::number(block->leakage_mw, 2),
                    report::Value::number(block->dynamic_uw_per_mhz, 1),
                    report::Value::number(block->max_freq_mhz, 0),
                    report::Value::number(block->max_power_mw(), 2)});
  }

  report::Table& corners = rep.add_table(
      "voltage/frequency corners",
      {"corner", "voltage_v", "freq_scale", "leakage_scale",
       "total_max_power_mw"});
  for (const power::OperatingPoint& op :
       {power::worst_ssg(), power::typical_tt(), power::overdrive()}) {
    double total = 0;
    for (const power::BlockPower* block : model.blocks()) {
      total += power::block_power_mw(*block, op,
                                     block->max_freq_mhz * op.freq_scale);
    }
    corners.add_row({report::Value::text(op.name),
                     report::Value::number(op.voltage, 2),
                     report::Value::number(op.freq_scale, 2),
                     report::Value::number(op.leakage_scale, 2),
                     report::Value::number(total, 2)});
  }

  rep.add_metric("total_max_power_mw",
                 report::Value::number(model.total_max_power_mw(), 2), "mW");
  rep.add_metric("die_area_mm2",
                 report::Value::number(model.die_area_mm2(), 2), "mm^2");
  rep.add_note("Power envelope check: total max power " +
               rep.metric_text("total_max_power_mw") + " mW (< 250 mW); "
               "die area " + rep.metric_text("die_area_mm2") +
               " mm^2 (< 9 mm^2)");
  rep.add_note(power::render_floorplan(model));
  hulkv::profile::finish_bench(rep, options);
  report::finish_bench(rep, options);
  hulkv::telemetry::finish_bench(rep, options);
  return 0;
}
