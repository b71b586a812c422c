// Regenerates Table I: comparison with the state of the art.
#include "core/comparison.hpp"
#include "profile/profile.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"

int main(int argc, char** argv) {
  namespace report = hulkv::report;
  using hulkv::core::DeviceEntry;
  const report::BenchOptions options = report::bench_args_or_exit(argc, argv);
  hulkv::profile::configure(options);
  hulkv::telemetry::configure(options);

  report::MetricsReport rep("table1_comparison");
  rep.add_note("Table I — comparison with the state of the art");

  report::Table& table = rep.add_table(
      "state-of-the-art comparison",
      {"device", "reference", "os", "memory", "asic_fpga", "host_cpu",
       "accelerator"});
  hulkv::u64 linux_capable = 0, heterogeneous = 0;
  for (const DeviceEntry& entry : hulkv::core::comparison_table()) {
    table.add_row({report::Value::text(entry.name),
                   report::Value::text(entry.reference),
                   report::Value::text(entry.os),
                   report::Value::text(entry.memory),
                   report::Value::text(entry.asic_fpga),
                   report::Value::text(entry.host_cpu),
                   report::Value::text(entry.accelerator)});
    if (entry.linux_capable) ++linux_capable;
    if (entry.heterogeneous) ++heterogeneous;
  }
  rep.add_metric("num_devices",
                 report::Value::uinteger(
                     hulkv::core::comparison_table().size()));
  rep.add_metric("num_linux_capable", report::Value::uinteger(linux_capable));
  rep.add_metric("num_heterogeneous", report::Value::uinteger(heterogeneous));
  hulkv::profile::finish_bench(rep, options);
  report::finish_bench(rep, options);
  hulkv::telemetry::finish_bench(rep, options);
  return 0;
}
