// Extension of Fig. 11's analysis — slice granularity: the paper observes
// that pictures usually carry one slice per macroblock row and that the
// slice count caps fine-grained parallelism. Re-encode the same content
// with 1/2/4 slices per row and watch the simple policy's ceiling move,
// and what the extra slices cost in bits.
#include "bench/common.h"
#include "sched/sim.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Extension: slice granularity vs parallelism",
      "Bilas et al., §4/§5.2 discussion (no figure)");
  const int width = static_cast<int>(flags.get_int("width", 352));
  const auto spr_list = flags.get_int_list("slices-per-row", {1, 2, 4});
  const auto worker_list = flags.get_int_list("workers", {8, 14, 20, 28});

  obs::RunReport report("bench_slice_granularity",
                        "Slice granularity vs parallelism (Section 5.2)");
  report.set_meta("width", width);

  Table t([&] {
    std::vector<std::string> h{"slices/row", "slices/pic", "stream KB"};
    for (const int w : worker_list) {
      h.push_back("simple speedup@" + std::to_string(w));
    }
    for (const int w : worker_list) {
      h.push_back("improved@" + std::to_string(w));
    }
    return h;
  }());

  for (const int spr : spr_list) {
    streamgen::StreamSpec spec;
    spec.width = width;
    spec.height = width * 240 / 352;
    spec.bit_rate = 5'000'000;
    spec.gop_size = 13;
    spec.slices_per_row = spr;
    spec = bench::apply_scale(spec, flags);
    const auto stream = bench::load_or_generate(spec);
    const auto profile = bench::sim_profile(spec, flags);

    sched::SimConfig one;
    one.workers = 1;
    const double base_simple =
        sched::simulate(profile, bench::simple_slice(one))
            .pictures_per_second();
    const double base_improved =
        sched::simulate(profile, bench::improved_slice(one))
            .pictures_per_second();
    std::vector<std::string> row{
        std::to_string(spr),
        std::to_string(profile.slices_per_picture * spr == 0
                           ? 0
                           : static_cast<int>(
                                 profile.gops[0].pictures[0].slices.size())),
        Table::fmt(stream.size() / 1024.0, 1)};
    std::vector<std::string> improved_cells;
    for (const int workers : worker_list) {
      sched::SimConfig cfg;
      cfg.workers = workers;
      const double simple_speedup =
          sched::simulate(profile, bench::simple_slice(cfg))
              .pictures_per_second() /
          base_simple;
      const double improved_speedup =
          sched::simulate(profile, bench::improved_slice(cfg))
              .pictures_per_second() /
          base_improved;
      row.push_back(Table::fmt(simple_speedup, 2));
      improved_cells.push_back(Table::fmt(improved_speedup, 2));
      report.add_row()
          .set("slices_per_row", spr)
          .set("workers", workers)
          .set("stream_bytes", static_cast<std::int64_t>(stream.size()))
          .set("simple_speedup", simple_speedup)
          .set("improved_speedup", improved_speedup);
    }
    row.insert(row.end(), improved_cells.begin(), improved_cells.end());
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\nPaper reference: 'the number of slices per picture ..."
               " has an important impact on the load balance and the"
               " performance' (§5.2); most streams carry one slice per row."
               "\nShape to check: doubling slices/row roughly doubles the"
               " simple policy's worker ceiling (knee at slices/P steps)"
               " for ~1-2% more bits per extra slice/row.\n";
  return bench::finish(flags, report);
}
