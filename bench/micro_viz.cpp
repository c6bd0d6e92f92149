// Micro-benchmarks (google-benchmark) for the hot computational kernels:
// isosurface extraction, ray casting, streamline advection, the DP mapper,
// software rasterization, PNG encoding and the message codec. These are the
// raw throughput numbers behind the calibrated cost models.
//
// The monitor loop's data-parallel stages (hydro step, ray cast, isosurface
// extraction, mesh render) take a `pool` argument: 0 runs the serial path,
// the other value a pool sized to the host, as the steering session runs
// them. The ratio of the two is the stage's speed-up on the machine it runs
// on:
//
//   ./build/bench/micro_viz --benchmark_filter='HydroStep|RayCast|Isosurface|RenderMesh'
//
// Start-up: the cost-model calibration, split by kernel, and the kernels
// it times, with the origin's isosurface view, which runs the same two
// kernels every frame:
//
//   ./build/bench/micro_viz --benchmark_filter='QuickCalibration|IsosurfaceExtract/n:24|RenderMesh|RayCast|OriginIsoView'
//
// PNG encoding of the steering benchmark's rendered frame, with the filter
// and deflate stages timed apart, of the dirty rects its delta bodies
// carry, of stored-fallback noise, and of one view-frame's publish:
//
//   ./build/bench/micro_viz --benchmark_filter='PngEncode|Deflate|PublishEncodes'
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "core/mapper.hpp"
#include "cost/models.hpp"
#include "cost/network_profile.hpp"
#include "data/generators.hpp"
#include "hydro/setups.hpp"
#include "steering/executor.hpp"
#include "steering/message.hpp"
#include "steering/session.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "viz/deflate.hpp"
#include "viz/image.hpp"
#include "viz/isosurface.hpp"
#include "viz/rasterizer.hpp"
#include "viz/raycast.hpp"
#include "viz/streamline.hpp"
#include "viz/tiles.hpp"

using namespace ricsa;

namespace {

/// Values of the `pool` argument: serial, and one worker per hardware
/// thread.
const std::vector<std::int64_t> kPoolSizes = {
    0, static_cast<std::int64_t>(
           std::max(1u, std::thread::hardware_concurrency()))};

/// The pool a benchmark's `pool` argument asks for; null means serial.
std::unique_ptr<util::ThreadPool> make_pool(std::int64_t threads) {
  if (threads <= 0) return nullptr;
  return std::make_unique<util::ThreadPool>(static_cast<std::size_t>(threads));
}

void BM_IsosurfaceExtract(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const data::ScalarVolume vol = data::make_rage(n, n, n);
  const auto pool = make_pool(state.range(1));
  viz::IsosurfaceOptions options;
  options.pool = pool.get();
  std::size_t cells = 0;
  for (auto _ : state) {
    const auto result = viz::extract_isosurface(vol, 0.6f, options);
    cells += result.stats.cells_scanned;
    benchmark::DoNotOptimize(result.mesh.triangle_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetLabel("cells/s");
}
BENCHMARK(BM_IsosurfaceExtract)
    ->ArgNames({"n", "pool"})
    ->ArgsProduct({{24, 48, 72}, kPoolSizes})
    ->UseRealTime();

void BM_RayCast(benchmark::State& state) {
  const data::ScalarVolume vol = data::make_jet(48, 48, 48);
  const auto tf = viz::TransferFunction::preset(0.0f, 1.3f);
  const auto pool = make_pool(state.range(1));
  viz::RayCastOptions opt;
  opt.width = static_cast<int>(state.range(0));
  opt.height = opt.width;
  opt.pool = pool.get();
  std::size_t samples = 0;
  for (auto _ : state) {
    const auto result = viz::raycast(vol, tf, opt);
    samples += result.samples;
    benchmark::DoNotOptimize(result.image.pixels().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
  state.SetLabel("samples/s");
}
BENCHMARK(BM_RayCast)
    ->ArgNames({"size", "pool"})
    ->ArgsProduct({{64, 128}, kPoolSizes})
    ->UseRealTime();

void BM_Streamline(benchmark::State& state) {
  const data::VectorVolume field = data::make_tornado(48);
  const auto seeds = viz::grid_seeds(field, 4);
  viz::StreamlineOptions opt;
  opt.max_steps = 300;
  std::size_t steps = 0;
  for (auto _ : state) {
    const auto set = viz::trace_streamlines(field, seeds, opt);
    steps += set.advection_steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.SetLabel("advections/s");
}
BENCHMARK(BM_Streamline);

void BM_RenderMesh(benchmark::State& state) {
  const data::ScalarVolume vol = data::make_sphere(49, 18.0f);
  const auto iso = viz::extract_isosurface(vol, 0.0f);
  const auto pool = make_pool(state.range(0));
  viz::RenderOptions opt;
  opt.width = 256;
  opt.height = 256;
  opt.pool = pool.get();
  std::size_t tris = 0;
  for (auto _ : state) {
    const auto result = viz::render_mesh(iso.mesh, opt);
    tris += result.triangles_drawn;
    benchmark::DoNotOptimize(result.image.pixels().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tris));
  state.SetLabel("triangles/s");
}
BENCHMARK(BM_RenderMesh)
    ->ArgNames({"pool"})
    ->ArgsProduct({kPoolSizes})
    ->UseRealTime();

void BM_DpSolve(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  util::Xoshiro256 rng(7);
  cost::NetworkProfile profile;
  for (int v = 0; v < nodes; ++v) {
    profile.add_node("n" + std::to_string(v), rng.uniform(0.5, 8.0), true);
  }
  for (int a = 0; a < nodes; ++a) {
    for (int b = 0; b < nodes; ++b) {
      if (a != b && rng.bernoulli(0.25)) {
        profile.set_link(a, b, {rng.uniform(1e5, 1e7), 0.01});
      }
    }
  }
  for (int v = 0; v + 1 < nodes; ++v) {
    profile.set_link(v, v + 1, {1e6, 0.01});
  }
  core::MappingProblem problem;
  problem.source = 0;
  problem.destination = nodes - 1;
  problem.unit_compute = {0.0, 5.0, 20.0, 3.0, 0.1};
  problem.messages = {100000000, 100000000, 20000000, 1048576};
  problem.allowed.assign(5, std::vector<bool>(static_cast<std::size_t>(nodes), true));
  for (int v = 0; v < nodes; ++v) {
    problem.allowed[0][static_cast<std::size_t>(v)] = (v == 0);
    problem.allowed[4][static_cast<std::size_t>(v)] = (v == nodes - 1);
  }
  for (auto _ : state) {
    const auto mapping = core::DpMapper().solve(profile, problem);
    benchmark::DoNotOptimize(mapping.delay_s);
  }
}
BENCHMARK(BM_DpSolve)->Arg(8)->Arg(32)->Arg(128);

void BM_HydroStep(benchmark::State& state) {
  auto solver = hydro::make_bowshock({.n = static_cast<int>(state.range(0))});
  const auto pool = make_pool(state.range(1));
  solver->set_pool(pool.get());
  for (auto _ : state) {
    solver->step();
    benchmark::DoNotOptimize(solver->time());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0) *
                          state.range(0));
  state.SetLabel("cell-updates/s");
}
BENCHMARK(BM_HydroStep)
    ->ArgNames({"n", "pool"})
    ->ArgsProduct({{24, 48}, kPoolSizes})
    ->UseRealTime();

// BM_QuickCalibration: the cost-model calibration every steering session
// runs once per process at start-up (steering::calibrate_quick_models),
// most of the origin's time to its first frame. Serial by design: it times
// the kernels to fit the Section 4.4 constants. The counters split one
// calibration by kernel, in ms.
void BM_QuickCalibration(benchmark::State& state) {
  cost::CalibrationTimes sum;
  for (auto _ : state) {
    const cost::CostModels models = steering::calibrate_quick_models();
    benchmark::DoNotOptimize(models.isosurface.alpha_cell_s);
    const cost::CalibrationTimes& t = models.calibration;
    sum.samples_s += t.samples_s;
    sum.isosurface_s += t.isosurface_s;
    sum.render_s += t.render_s;
    sum.raycast_s += t.raycast_s;
    sum.gradient_field_s += t.gradient_field_s;
    sum.streamline_s += t.streamline_s;
    sum.filter_s += t.filter_s;
  }
  const auto ms = [&state](double seconds) {
    return 1e3 * seconds / static_cast<double>(state.iterations());
  };
  state.counters["samples_ms"] = ms(sum.samples_s);
  state.counters["extract_ms"] = ms(sum.isosurface_s);
  state.counters["render_ms"] = ms(sum.render_s);
  state.counters["raycast_ms"] = ms(sum.raycast_s);
  state.counters["field_ms"] = ms(sum.gradient_field_s);
  state.counters["trace_ms"] = ms(sum.streamline_s);
  state.counters["filter_ms"] = ms(sum.filter_s);
}
BENCHMARK(BM_QuickCalibration)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The steering benchmark origin's session (perfbench/steer_bench.cpp): a
/// 40^3 bow shock ray-cast to 192x192.
steering::SessionConfig origin_config() {
  steering::SessionConfig config;
  config.simulation = hydro::HydroSimulation::Kind::kBowshock;
  config.resolution = 40;
  config.viz.technique = cost::VizRequest::Technique::kRayCast;
  config.viz.image_width = 192;
  config.viz.image_height = 192;
  config.cycles_per_frame = 1;
  return config;
}

/// The origin's isosurface view: its request and its camera.
cost::VizRequest origin_iso_request() {
  cost::VizRequest iso = origin_config().viz;
  iso.technique = cost::VizRequest::Technique::kIsosurface;
  iso.isovalue = 1.1f;
  return iso;
}

steering::ExecuteOptions origin_iso_camera() {
  steering::ExecuteOptions camera;
  camera.azimuth = 2.2f;
  camera.elevation = 0.5f;
  return camera;
}

/// The origin's two views over its first 40 frames: the main view, and the
/// isosurface view from a second camera, with each frame's snapshot.
struct OriginViews {
  std::vector<viz::Image> frames[2];  // [0] main, [1] isosurface
  std::vector<data::ScalarVolume> snapshots;
};

const OriginViews& origin_views() {
  static const OriginViews views = [] {
    const cost::VizRequest iso = origin_iso_request();
    steering::SteeringSession session(origin_config());
    OriginViews out;
    for (int f = 0; f < 40; ++f) {
      out.frames[0].push_back(session.next_frame().image);
      out.frames[1].push_back(
          session.render_view(iso, origin_iso_camera())->image);
      out.snapshots.push_back(
          session.simulation().snapshot(session.variable()));
    }
    return out;
  }();
  return views;
}

// BM_OriginIsoView: the isosurface view the origin's monitor loop builds
// every frame (SteeringSession::render_view: extraction, then the
// 192x192 render from the view's camera), over the 40 bow-shock snapshots
// in turn. `pool` 0 is serial; the monitor loop lends its host-sized
// pool. Counters per frame: `extract_ms`, `render_ms`, and the mesh's
// `geometry_bytes`. Every image is first checked against the one the
// origin published.
void BM_OriginIsoView(benchmark::State& state) {
  const OriginViews& views = origin_views();
  const cost::VizRequest iso = origin_iso_request();
  const auto pool = make_pool(state.range(0));
  steering::ExecuteOptions options = origin_iso_camera();
  options.pool = pool.get();
  for (std::size_t f = 0; f < views.snapshots.size(); ++f) {
    if (steering::execute_pipeline(views.snapshots[f], iso, options)
            .image.pixels() != views.frames[1][f].pixels()) {
      state.SkipWithError("isosurface view differs from the origin's");
      return;
    }
  }
  double extract_s = 0, render_s = 0, geometry_bytes = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const steering::ExecuteResult result = steering::execute_pipeline(
        views.snapshots[next++ % views.snapshots.size()], iso, options);
    benchmark::DoNotOptimize(result.image.pixels().data());
    extract_s += result.transform_s;
    render_s += result.render_s;
    geometry_bytes += static_cast<double>(result.geometry_bytes);
  }
  const auto per_frame = [&state](double total) {
    return total / static_cast<double>(std::max<benchmark::IterationCount>(
                       state.iterations(), 1));
  };
  state.counters["extract_ms"] = 1e3 * per_frame(extract_s);
  state.counters["render_ms"] = 1e3 * per_frame(render_s);
  state.counters["geometry_bytes"] = per_frame(geometry_bytes);
}
BENCHMARK(BM_OriginIsoView)
    ->ArgNames({"pool"})
    ->ArgsProduct({kPoolSizes})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The origin's main view, 40 frames in.
const viz::Image& origin_frame() { return origin_views().frames[0].back(); }

/// The rect the hub encodes for `image` against `prev`: the bounding box
/// of the changed pixels, cut out (none when no pixel changed).
std::vector<viz::Image> dirty_rects(const viz::Image& prev,
                                    const viz::Image& image) {
  std::vector<viz::Image> rects;
  if (const auto rect = viz::changed_bounds(prev, image)) {
    rects.push_back(viz::TileGrid::extract(image, *rect));
  }
  return rects;
}

/// What the origin's delta bodies carry over those 40 frames: for both
/// views, each frame diffed against the one before.
struct OriginRects {
  std::vector<viz::Image> rects;
  int frames = 0;  // view-frames diffed against a predecessor
};

const OriginRects& origin_rects() {
  static const OriginRects set = [] {
    OriginRects out;
    for (const std::vector<viz::Image>& frames : origin_views().frames) {
      for (std::size_t f = 1; f < frames.size(); ++f) {
        for (viz::Image& rect : dirty_rects(frames[f - 1], frames[f])) {
          out.rects.push_back(std::move(rect));
        }
        ++out.frames;
      }
    }
    return out;
  }();
  return set;
}

/// The filtered scanlines a PNG from Image::encode_png carries: it writes
/// one IDAT chunk, right after the signature and the 25-byte IHDR chunk.
std::vector<std::uint8_t> png_scanlines(const std::vector<std::uint8_t>& png) {
  constexpr std::size_t kIdat = 8 + 25;
  const std::size_t length = (std::size_t{png[kIdat]} << 24) |
                             (std::size_t{png[kIdat + 1]} << 16) |
                             (std::size_t{png[kIdat + 2]} << 8) |
                             std::size_t{png[kIdat + 3]};
  return viz::zlib_decompress(png.data() + kIdat + 8, length);
}

// PNG encoding, split into its two stages on a rendered frame:
// BM_PngEncodeFrame runs the whole encode_png, BM_DeflateFrame only the
// deflate of that frame's filtered scanlines, so the difference is the
// filter pass, the Adler-32 checksum and PNG framing. BM_PngEncodeRects
// encodes the changed-region rect of each of 40 frames of both views, the
// payload delta bodies carry: `png_bytes_per_frame` is their PNG bytes per
// view-frame.
// BM_PngEncodeNoise encodes uniform noise, where every block takes the
// stored fallback (ratio ~1). `ratio` is raw RGBA bytes over PNG bytes.
// Each takes the `pool` argument: 0 encodes serially, otherwise the
// encoder's deflate strips run on a pool of that many threads.
void BM_PngEncodeFrame(benchmark::State& state) {
  const viz::Image& img = origin_frame();
  const auto pool = make_pool(state.range(0));
  std::size_t png_bytes = 0;
  for (auto _ : state) {
    const auto png = img.encode_png(pool.get());
    png_bytes = png.size();
    benchmark::DoNotOptimize(png.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.bytes()));
  state.counters["ratio"] =
      static_cast<double>(img.bytes()) / static_cast<double>(png_bytes);
}
BENCHMARK(BM_PngEncodeFrame)
    ->ArgNames({"pool"})
    ->ArgsProduct({kPoolSizes})
    ->UseRealTime();

void BM_DeflateFrame(benchmark::State& state) {
  const std::vector<std::uint8_t> scanlines =
      png_scanlines(origin_frame().encode_png());
  const auto pool = make_pool(state.range(0));
  std::size_t deflated = 0;
  for (auto _ : state) {
    const auto z = viz::deflate(scanlines, pool.get());
    deflated = z.size();
    benchmark::DoNotOptimize(z.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scanlines.size()));
  state.counters["ratio"] = static_cast<double>(scanlines.size()) /
                            static_cast<double>(deflated);
}
BENCHMARK(BM_DeflateFrame)
    ->ArgNames({"pool"})
    ->ArgsProduct({kPoolSizes})
    ->UseRealTime();

void BM_PngEncodeRects(benchmark::State& state) {
  const OriginRects& set = origin_rects();
  const auto pool = make_pool(state.range(0));
  std::size_t raw_bytes = 0;
  for (const viz::Image& rect : set.rects) raw_bytes += rect.bytes();
  std::size_t png_bytes = 0;
  for (auto _ : state) {
    png_bytes = 0;
    for (const viz::Image& rect : set.rects) {
      const auto png = rect.encode_png(pool.get());
      png_bytes += png.size();
      benchmark::DoNotOptimize(png.data());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw_bytes));
  state.counters["rects"] = static_cast<double>(set.rects.size());
  state.counters["png_bytes_per_frame"] =
      static_cast<double>(png_bytes) / static_cast<double>(set.frames);
  state.counters["ratio"] =
      static_cast<double>(raw_bytes) / static_cast<double>(png_bytes);
}
BENCHMARK(BM_PngEncodeRects)
    ->ArgNames({"pool"})
    ->ArgsProduct({kPoolSizes})
    ->UseRealTime();

// BM_PublishEncodes: the encodes FrameHub::publish runs for one view-frame
// (view 0 the main view, 1 the isosurface view), frames 31-40 in turn: the
// full PNG and the changed-region rect against the frame before, each one
// task of one parallel_for on a host-sized pool, with the pool lent to
// every encode. Its time is what a publish waits for its PNGs.
void BM_PublishEncodes(benchmark::State& state) {
  const std::vector<viz::Image>& frames =
      origin_views().frames[static_cast<std::size_t>(state.range(0))];
  std::vector<std::vector<viz::Image>> publishes;  // full frame, then rects
  std::size_t encodes = 0;
  for (std::size_t f = frames.size() - 10; f < frames.size(); ++f) {
    std::vector<viz::Image> images = dirty_rects(frames[f - 1], frames[f]);
    images.insert(images.begin(), frames[f]);
    encodes += images.size();
    publishes.push_back(std::move(images));
  }
  util::ThreadPool pool(static_cast<std::size_t>(kPoolSizes.back()));
  std::size_t next = 0;
  for (auto _ : state) {
    const std::vector<viz::Image>& images =
        publishes[next++ % publishes.size()];
    std::vector<std::vector<std::uint8_t>> pngs(images.size());
    pool.parallel_for(0, images.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        pngs[i] = images[i].encode_png(&pool);
      }
    });
    benchmark::DoNotOptimize(pngs.data());
  }
  state.counters["pngs_per_publish"] =
      static_cast<double>(encodes) / static_cast<double>(publishes.size());
  state.SetLabel(state.range(0) == 0 ? "main" : "iso");
}
BENCHMARK(BM_PublishEncodes)->ArgName("view")->DenseRange(0, 1)->UseRealTime();

void BM_PngEncodeNoise(benchmark::State& state) {
  viz::Image img(256, 256);
  util::Xoshiro256 rng(3);
  for (int y = 0; y < 256; ++y) {
    for (int x = 0; x < 256; ++x) {
      img.at(x, y) = {static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF),
                      static_cast<std::uint8_t>(rng() & 0xFF), 255};
    }
  }
  for (auto _ : state) {
    const auto png = img.encode_png();
    benchmark::DoNotOptimize(png.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.bytes()));
  state.SetLabel("stored fallback");
}
BENCHMARK(BM_PngEncodeNoise);

void BM_MessageRoundTrip(benchmark::State& state) {
  steering::Message m = steering::make_viz_request(1, "isosurface", 0.5f, 512, 512);
  m.payload.assign(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    const auto bytes = m.serialize();
    const auto back = steering::Message::deserialize(bytes);
    benchmark::DoNotOptimize(back.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MessageRoundTrip)->Arg(1024)->Arg(1048576);

}  // namespace

BENCHMARK_MAIN();
