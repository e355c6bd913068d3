#include "pipeline.h"

#include <algorithm>
#include <filesystem>

#include "common/logging.h"
#include "common/string_util.h"
#include "etl/mapping.h"
#include "etl/table.h"
#include "geo/wkt.h"
#include "harness.h"
#include "ml/trainer.h"
#include "raster/dataset.h"
#include "rdf/term.h"
#include "storage/page_chain.h"
#include "strabon/workload.h"

namespace eebench {

using eea::common::Fnv1a;
using eea::common::Result;
using eea::common::Rng;
using eea::common::Status;
using eea::common::StrFormat;

namespace {

constexpr int kSceneSize = 32;  // pixels per side of an ingested scene
constexpr int kPatchSize = 8;   // 16 patches per scene
constexpr int kPatchesPerScene =
    (kSceneSize / kPatchSize) * (kSceneSize / kPatchSize);
constexpr double kPixelSize = 10.0;
constexpr int kCnnFilters = 8;

constexpr const char* kBandNames[eea::raster::kS2Bands] = {
    "B01", "B02", "B03", "B04", "B05", "B06", "B07",
    "B08", "B8A", "B09", "B10", "B11", "B12"};

constexpr char kOntology[] = "http://extremeearth.eu/ontology#";
constexpr char kProductIri[] = "http://extremeearth.eu/product/{id}";

struct Scene {
  eea::raster::SentinelProduct product;
  eea::raster::ClassMap land_cover;
};

Scene SimulateScene(const ProductSpec& spec, int size) {
  Rng rng(spec.seed);
  eea::raster::ClassMapOptions map;
  map.width = size;
  map.height = size;
  map.num_patches = std::max(4, size * size / 128);
  Scene scene;
  scene.land_cover = eea::raster::GenerateClassMap(map, &rng);
  eea::raster::SentinelSimulator::Options sim;
  sim.origin_x = spec.origin_x;
  sim.origin_y = spec.origin_y;
  sim.pixel_size = kPixelSize;
  sim.cloud_probability = 0.0;  // every scene yields all 16 patches
  eea::raster::SentinelSimulator simulator(sim, spec.seed);
  scene.product = simulator.SimulateS2(scene.land_cover, spec.day_of_year);
  return scene;
}

eea::ml::Network BuildNetwork(uint64_t seed) {
  return eea::ml::BuildCnn(eea::raster::kS2Bands, kPatchSize, kPatchSize,
                           kCnnFilters, eea::raster::kNumLandCoverClasses,
                           seed);
}

// Reflectance quantized to uint16 (x10000, little-endian): one band file.
std::string BandBytes(const eea::raster::Raster& r, int band) {
  std::string out;
  out.reserve(r.BandSize() * 2);
  const float* px = r.BandData(band);
  for (size_t i = 0; i < r.BandSize(); ++i) {
    const auto q = static_cast<uint16_t>(
        std::clamp(px[i] * 10000.0f, 0.0f, 65535.0f));
    out.push_back(static_cast<char>(q & 0xff));
    out.push_back(static_cast<char>(q >> 8));
  }
  return out;
}

// World box of patch `k` (row-major 8x8 windows, MakePatchDataset order).
eea::geo::Box PatchBox(const eea::geo::Box& footprint, int k) {
  const int per_row = kSceneSize / kPatchSize;
  const double side = kPatchSize * kPixelSize;
  const double x0 = footprint.min_x + (k % per_row) * side;
  const double y1 = footprint.max_y - (k / per_row) * side;
  return eea::geo::Box::Of(x0, y1 - side, x0 + side, y1);
}

Result<ArchivedProduct> ArchiveSafe(const ProductSpec& spec,
                                    const eea::raster::SentinelProduct& p,
                                    const std::vector<int>& classes,
                                    eea::dfs::HopsFsNameNode* nn) {
  ArchivedProduct out;
  out.index = spec.index;
  out.id = spec.id;
  const std::string dir = Archive::ProductDir(spec.id);
  EEA_RETURN_NOT_OK(nn->Mkdir(dir));
  EEA_RETURN_NOT_OK(nn->Mkdir(dir + "/GRANULE"));
  auto put = [&](std::string path, const std::string& bytes) -> Status {
    EEA_RETURN_NOT_OK(nn->Create(path, bytes.size(), bytes));
    out.files.push_back({std::move(path), Fnv1a(bytes), bytes.size()});
    return Status::OK();
  };
  const eea::geo::Box& fp = p.metadata.footprint;
  EEA_RETURN_NOT_OK(put(dir + "/manifest.safe",
                        StrFormat("%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
                                  spec.id.c_str(), spec.day_of_year, fp.min_x,
                                  fp.min_y, fp.max_x, fp.max_y)));
  EEA_RETURN_NOT_OK(put(
      dir + "/INSPIRE.xml",
      StrFormat("<inspire><id>%s</id><day>%d</day><mission>S2MSI1C</mission>"
                "</inspire>\n",
                spec.id.c_str(), spec.day_of_year)));
  for (int b = 0; b < eea::raster::kS2Bands; ++b) {
    EEA_RETURN_NOT_OK(
        put(dir + "/GRANULE/IMG_" + kBandNames[b] + ".jp2",
            BandBytes(p.raster, b)));
  }
  EEA_RETURN_NOT_OK(put(
      dir + "/GRANULE/MSK_CLOUDS.gml",
      std::string(p.cloud_mask.data().begin(), p.cloud_mask.data().end())));
  std::string tsv;
  for (size_t k = 0; k < classes.size(); ++k) {
    tsv += StrFormat("%zu\t%d\n", k, classes[k]);
  }
  EEA_RETURN_NOT_OK(put(dir + "/GRANULE/CLASSIFICATION.tsv", tsv));
  return out;
}

const eea::etl::TriplesMap& ProductMap() {
  static const eea::etl::TriplesMap* map = [] {
    auto* m = new eea::etl::TriplesMap();
    m->subject = eea::etl::TermMap::Template(kProductIri);
    m->subject_class = std::string(kOntology) + "Product";
    m->predicate_objects = {
        {std::string(kOntology) + "acquisitionDay",
         eea::etl::TermMap::Column("day", eea::rdf::vocab::kXsdInteger)}};
    m->wkt_column = "wkt";
    return m;
  }();
  return *map;
}

const eea::etl::TriplesMap& PatchMap() {
  static const eea::etl::TriplesMap* map = [] {
    auto* m = new eea::etl::TriplesMap();
    m->subject = eea::etl::TermMap::Template(
        "http://extremeearth.eu/product/{id}/patch/{patch}");
    m->subject_class = std::string(kOntology) + "Patch";
    m->predicate_objects = {
        {std::string(kOntology) + "landCover",
         eea::etl::TermMap::Column("class")},
        {std::string(kOntology) + "partOf",
         eea::etl::TermMap::Template(kProductIri)}};
    m->wkt_column = "wkt";
    return m;
  }();
  return *map;
}

}  // namespace

ProductSpec MakeProductSpec(uint64_t run_seed, int64_t index) {
  ProductSpec spec;
  spec.index = index;
  spec.id = StrFormat("S2_EEA_%06lld", static_cast<long long>(index));
  spec.seed = Scramble(run_seed ^ Scramble(static_cast<uint64_t>(index) + 1));
  Rng rng(spec.seed);
  const auto side = static_cast<int64_t>(kSceneSize * kPixelSize);
  const auto world = static_cast<int64_t>(kWorldSize);
  spec.day_of_year = static_cast<int>(rng.UniformInt(1, 365));
  spec.origin_x = static_cast<double>(rng.UniformInt(0, world - side));
  spec.origin_y = static_cast<double>(rng.UniformInt(side, world));
  return spec;
}

// ------------------------------------------------------------- Classifier

std::unique_ptr<Classifier> Classifier::Train(uint64_t seed, int scene_size,
                                              int epochs) {
  ProductSpec spec = MakeProductSpec(seed, -1);
  const Scene scene = SimulateScene(spec, scene_size);
  auto ds = eea::raster::MakePatchDataset(scene.product, scene.land_cover,
                                          eea::raster::kNumLandCoverClasses,
                                          kPatchSize, /*stride=*/4);
  EEA_CHECK_OK(ds.status());
  Rng rng(seed);
  ds->Shuffle(&rng);
  std::unique_ptr<Classifier> c(new Classifier());
  c->standardization_ = ds->Standardize();
  c->net_ = BuildNetwork(seed);
  eea::ml::TrainOptions opt;
  opt.epochs = epochs;
  opt.batch_size = 16;
  opt.as_images = true;
  opt.sgd.learning_rate = 0.05;
  opt.shuffle_seed = seed;
  eea::ml::Trainer(&c->net_, opt).Fit(&*ds);
  return c;
}

std::unique_ptr<Classifier> Classifier::Clone() {
  std::unique_ptr<Classifier> c(new Classifier());
  c->standardization_ = standardization_;
  c->net_ = BuildNetwork(0);
  c->net_.CopyParamsFrom(net_);
  return c;
}

Result<std::vector<int>> Classifier::Classify(
    const eea::raster::SentinelProduct& scene,
    const eea::raster::ClassMap& land_cover) {
  EEA_ASSIGN_OR_RETURN(
      eea::raster::Dataset ds,
      eea::raster::MakePatchDataset(scene, land_cover,
                                    eea::raster::kNumLandCoverClasses,
                                    kPatchSize, kPatchSize));
  if (ds.size() != static_cast<size_t>(kPatchesPerScene)) {
    return Status::Internal(
        StrFormat("classify: %zu patches, want %d", ds.size(),
                  kPatchesPerScene));
  }
  ds.ApplyStandardization(standardization_);
  return eea::ml::Predict(&net_, ds, /*as_images=*/true);
}

// ---------------------------------------------------------------- Archive

std::unique_ptr<Archive> Archive::Open(const std::string& dir,
                                       uint64_t seed) {
  std::unique_ptr<Archive> a(new Archive());
  a->repl_dir_ = dir + "/repl";
  eea::repl::ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  opt.data_dir = a->repl_dir_;
  opt.election_seed = seed;
  {
    ScopedSpan span("repl.open");
    auto opened = eea::repl::ReplicatedKvStore::Open(opt);
    EEA_CHECK_OK(opened.status());
    a->store_ = std::move(opened).value();
  }
  a->cluster_ = std::make_unique<eea::dfs::HopsFsCluster>(
      eea::dfs::HopsFsCluster::Options{}, a->store_.get(), 1);
  eea::dfs::HopsFsNameNode nn(a->cluster_.get());
  const Status made = nn.Mkdir("/products");
  EEA_CHECK(made.ok() ||
            made.code() == eea::common::StatusCode::kAlreadyExists)
      << made.ToString();
  return a;
}

std::string Archive::ReplicaWalPath(int shard, int replica) const {
  return StrFormat("%s/shard%03d_replica%02d.wal", repl_dir_.c_str(), shard,
                   replica);
}

std::string Archive::ProductDir(const std::string& id) {
  return "/products/" + id + ".SAFE";
}

Result<ArchivedProduct> IngestProduct(const ProductSpec& spec,
                                      Classifier* classifier,
                                      eea::dfs::HopsFsNameNode* nn) {
  ScopedSpan product_span("pipeline.product", spec.index);
  Scene scene;
  {
    ScopedSpan span("raster.simulate", spec.index);
    scene = SimulateScene(spec, kSceneSize);
  }
  std::vector<int> classes;
  {
    ScopedSpan span("ml.classify", spec.index);
    EEA_ASSIGN_OR_RETURN(classes,
                         classifier->Classify(scene.product, scene.land_cover));
  }
  ScopedSpan span("dfs.archive", spec.index);
  return ArchiveSafe(spec, scene.product, classes, nn);
}

// -------------------------------------------------------------- Catalogue

Catalogue::Catalogue(const std::string& dir, size_t pool_pages) {
  std::filesystem::create_directories(dir);
  auto disk = eea::storage::DiskStorageManager::Open(dir + "/index.pages");
  EEA_CHECK_OK(disk.status());
  disk_ = std::move(disk).value();
  pool_ = std::make_unique<eea::storage::BufferPool>(disk_.get(), pool_pages);
}

void Catalogue::AddPoints(int64_t n, uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    const double x = rng.UniformDouble(0, kWorldSize);
    const double y = rng.UniformDouble(0, kWorldSize);
    store_.AddFeature(StrFormat("http://extremeearth.eu/feature/%lld",
                                static_cast<long long>(i)),
                      eea::geo::Geometry(eea::geo::Point{x, y}));
  }
}

void Catalogue::AddMultiPolygons(int64_t n, uint64_t seed) {
  // The E2 multipolygon shape: two star polygons of 8 vertices, ~50 m.
  constexpr double kFeatureSize = 50.0;
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    const double cx = rng.UniformDouble(0, kWorldSize);
    const double cy = rng.UniformDouble(0, kWorldSize);
    eea::geo::MultiPolygon mp;
    for (int part = 0; part < 2; ++part) {
      const double px = cx + rng.Gaussian(0, kFeatureSize);
      const double py = cy + rng.Gaussian(0, kFeatureSize);
      mp.polygons.push_back(
          eea::strabon::RandomPolygon(px, py, kFeatureSize, 8, &rng));
    }
    store_.AddFeature(StrFormat("http://extremeearth.eu/feature/%lld",
                                static_cast<long long>(i)),
                      eea::geo::Geometry(std::move(mp)));
  }
}

Result<uint64_t> Catalogue::MapProducts(eea::dfs::HopsFsNameNode* nn,
                                        const std::vector<std::string>& ids) {
  eea::etl::Table products{{"id", "day", "wkt"}, {}};
  eea::etl::Table patches{{"id", "patch", "class", "wkt"}, {}};
  {
    ScopedSpan span("dfs.read");
    for (const std::string& id : ids) {
      const std::string dir = Archive::ProductDir(id);
      EEA_ASSIGN_OR_RETURN(std::string manifest,
                           nn->ReadFile(dir + "/manifest.safe"));
      const std::vector<std::string> f =
          eea::common::Split(eea::common::Trim(manifest), '\t');
      double box[4];
      if (f.size() != 6 || f[0] != id ||
          !eea::common::ParseDouble(f[2], &box[0]) ||
          !eea::common::ParseDouble(f[3], &box[1]) ||
          !eea::common::ParseDouble(f[4], &box[2]) ||
          !eea::common::ParseDouble(f[5], &box[3])) {
        return Status::Internal("malformed manifest of " + id);
      }
      const auto footprint = eea::geo::Box::Of(box[0], box[1], box[2], box[3]);
      products.rows.push_back({id, f[1], eea::geo::ToWkt(footprint)});
      EEA_ASSIGN_OR_RETURN(std::string tsv,
                           nn->ReadFile(dir + "/GRANULE/CLASSIFICATION.tsv"));
      for (const std::string& line :
           eea::common::Split(eea::common::Trim(tsv), '\n')) {
        const std::vector<std::string> cells = eea::common::Split(line, '\t');
        int64_t patch = 0;
        int64_t cls = 0;
        if (cells.size() != 2 || !eea::common::ParseInt64(cells[0], &patch) ||
            !eea::common::ParseInt64(cells[1], &cls) || patch < 0 ||
            patch >= kPatchesPerScene || cls < 0 ||
            cls >= eea::raster::kNumLandCoverClasses) {
          return Status::Internal("malformed classification of " + id);
        }
        patches.rows.push_back(
            {id, cells[0],
             eea::raster::LandCoverClassName(
                 static_cast<eea::raster::LandCoverClass>(cls)),
             eea::geo::ToWkt(PatchBox(footprint, static_cast<int>(patch)))});
      }
    }
  }
  ScopedSpan span("etl.map");
  EEA_ASSIGN_OR_RETURN(
      eea::etl::MappingStats a,
      eea::etl::ExecuteMapping(products, ProductMap(), &store_.triples()));
  EEA_ASSIGN_OR_RETURN(
      eea::etl::MappingStats b,
      eea::etl::ExecuteMapping(patches, PatchMap(), &store_.triples()));
  return a.triples_generated + b.triples_generated;
}

Status Catalogue::Build(const char* span_name) {
  {
    ScopedSpan span(span_name);
    EEA_ASSIGN_OR_RETURN(size_t built, store_.Build());
    features_built_ += built;
  }
  const eea::rdf::Dictionary& dict = store_.triples().dict();
  for (uint64_t id = iri_hash_.size() + 1; id <= dict.size(); ++id) {
    const eea::rdf::Term& term = dict.Decode(id);
    iri_hash_.push_back(term.IsIri() ? Fnv1a(term.value) : 0);
  }
  return Status::OK();
}

Status Catalogue::Freeze() {
  ScopedSpan span("strabon.freeze");
  eea::storage::PageId head = eea::storage::kInvalidPageId;
  EEA_RETURN_NOT_OK(store_.FreezeIndexTo(pool_.get(), &head));
  EEA_RETURN_NOT_OK(pool_->FlushAll());
  EEA_RETURN_NOT_OK(disk_->Sync());
  EEA_RETURN_NOT_OK(disk_->WriteMeta(std::to_string(head)));
  if (head_ != eea::storage::kInvalidPageId) {
    EEA_RETURN_NOT_OK(eea::storage::FreeChain(pool_.get(), head_));
  }
  head_ = head;
  return Status::OK();
}

Status Catalogue::LoadIndex() {
  ScopedSpan span("strabon.load_index");
  return store_.LoadFrozenIndex(pool_.get(), head_);
}

Result<uint64_t> Catalogue::Publish(eea::dfs::HopsFsNameNode* nn,
                                    const std::vector<std::string>& ids) {
  ScopedSpan span("publish");
  EEA_ASSIGN_OR_RETURN(uint64_t triples, MapProducts(nn, ids));
  EEA_RETURN_NOT_OK(Build());
  EEA_RETURN_NOT_OK(Freeze());
  return triples;
}

uint64_t Catalogue::ResultHash(const std::vector<uint64_t>& ids) const {
  uint64_t sum = 0;
  for (uint64_t id : ids) {
    EEA_CHECK(id >= 1 && id <= iri_hash_.size()) << "id " << id;
    sum += Scramble(iri_hash_[id - 1]);
  }
  return sum;
}

uint64_t Catalogue::ContentHash() const {
  const eea::rdf::TripleStore& t = store_.triples();
  const auto as_wkt =
      t.dict().Lookup(eea::rdf::Term::Iri(eea::rdf::vocab::kAsWkt));
  uint64_t sum = 0;
  if (!as_wkt.has_value()) return sum;
  t.Scan(eea::rdf::IdPattern{std::nullopt, *as_wkt, std::nullopt},
         [&](const eea::rdf::TripleId& tr) {
           sum += Scramble(Fnv1a(t.dict().Decode(tr.s).value) ^
                           Scramble(Fnv1a(t.dict().Decode(tr.o).value)));
           return true;
         });
  return sum;
}

eea::geo::Box RandomBox(double side, Rng* rng) {
  const double x = rng->UniformDouble(0, kWorldSize - side);
  const double y = rng->UniformDouble(0, kWorldSize - side);
  return eea::geo::Box::Of(x, y, x + side, y + side);
}

}  // namespace eebench
