// The Copernicus pipeline as eebench drives it, one public call per layer:
//
//   raster  SentinelSimulator::SimulateS2 of a 32x32 scene
//   ml      ml::Predict on its 16 8x8 patches (a small trained CNN)
//   dfs     a SAFE-like product layout on HopsFS (2 dirs + 17 inline
//           files), over repl::ReplicatedKvStore (1 shard, 2 followers,
//           write quorum 1) whose replicas log to storage::Wal
//   etl     GeoTriples mapping of the archived manifest + classification
//   strabon GeoStore::Build, FreezeIndexTo and LoadFrozenIndex through a
//           storage::BufferPool
//
// Every input derives from (run seed, product index), so what gets
// archived and published is the same on every run of a seed.

#ifndef EEBENCH_PIPELINE_H_
#define EEBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "dfs/hopsfs.h"
#include "geo/geometry.h"
#include "ml/network.h"
#include "raster/landcover.h"
#include "raster/sentinel.h"
#include "repl/replicated_store.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "strabon/geostore.h"

namespace eebench {

namespace eea = exearth;

/// Features and products live in [0, kWorldSize)^2 (metres).
inline constexpr double kWorldSize = 100000.0;

/// One product's generated identity: everything SimulateS2 needs.
struct ProductSpec {
  int64_t index = 0;
  std::string id;
  int day_of_year = 1;
  double origin_x = 0.0;  // top-left corner, world coordinates
  double origin_y = 0.0;
  uint64_t seed = 0;
};

ProductSpec MakeProductSpec(uint64_t run_seed, int64_t index);

/// The land-cover CNN plus the standardization of its training set.
/// Predict keeps activations in the layers, so each thread classifies
/// with its own Clone().
class Classifier {
 public:
  /// Trains on the patches of one simulated `scene_size`^2 scene.
  static std::unique_ptr<Classifier> Train(uint64_t seed, int scene_size,
                                           int epochs);
  std::unique_ptr<Classifier> Clone();

  /// Land-cover class of each of the scene's 16 patches, row-major.
  eea::common::Result<std::vector<int>> Classify(
      const eea::raster::SentinelProduct& scene,
      const eea::raster::ClassMap& land_cover);

 private:
  Classifier() = default;

  eea::ml::Network net_;
  std::vector<std::pair<float, float>> standardization_;
};

struct ArchivedFile {
  std::string path;
  uint64_t hash = 0;  // Fnv1a of the bytes written
  uint64_t size = 0;
};

/// A product whose every file was acknowledged by the archive.
struct ArchivedProduct {
  int64_t index = 0;
  std::string id;
  std::vector<ArchivedFile> files;
};

/// HopsFS over the replicated metadata store, in `dir`/repl.
class Archive {
 public:
  /// Opens (or recovers) the archive; aborts if the store cannot open.
  static std::unique_ptr<Archive> Open(const std::string& dir, uint64_t seed);

  eea::dfs::HopsFsCluster* cluster() { return cluster_.get(); }
  eea::repl::ReplicatedKvStore* store() { return store_.get(); }

  /// Path of one replica's WAL (the crash drill removes a lost node's).
  std::string ReplicaWalPath(int shard, int replica) const;

  /// "/products/<id>.SAFE".
  static std::string ProductDir(const std::string& id);

 private:
  std::string repl_dir_;
  std::unique_ptr<eea::repl::ReplicatedKvStore> store_;
  std::unique_ptr<eea::dfs::HopsFsCluster> cluster_;
};

/// Simulates, classifies and archives one product (spans raster.simulate,
/// ml.classify and dfs.archive under pipeline.product). Fails with the
/// first refused archive call; the product is then not acknowledged.
eea::common::Result<ArchivedProduct> IngestProduct(
    const ProductSpec& spec, Classifier* classifier,
    eea::dfs::HopsFsNameNode* nn);

/// The published catalogue: a GeoStore plus its frozen index in a page
/// file read through a BufferPool of `pool_pages` 4 KiB frames.
class Catalogue {
 public:
  Catalogue(const std::string& dir, size_t pool_pages);

  eea::strabon::GeoStore& store() { return store_; }
  const eea::strabon::GeoStore& store() const { return store_; }

  /// Bulk features the serving workloads start from (added before Build,
  /// through GeoStore::AddFeature, as a loaded dump would be).
  void AddPoints(int64_t n, uint64_t seed);
  void AddMultiPolygons(int64_t n, uint64_t seed);

  /// GeoTriples: reads each product's manifest and classification back
  /// from the archive and maps them into the store's triples. Returns the
  /// number of triples generated.
  eea::common::Result<uint64_t> MapProducts(
      eea::dfs::HopsFsNameNode* nn, const std::vector<std::string>& ids);

  /// GeoStore::Build (span `span_name`), then extends the IRI hash table
  /// over the dictionary ids it added.
  eea::common::Status Build(const char* span_name = "strabon.build");
  /// FreezeIndexTo + flush + fsync + superblock meta flip, then frees the
  /// previous index chain.
  eea::common::Status Freeze();
  /// Replaces the R-tree with the frozen one, read through the pool.
  eea::common::Status LoadIndex();

  /// MapProducts + Build + Freeze: one publish.
  eea::common::Result<uint64_t> Publish(eea::dfs::HopsFsNameNode* nn,
                                        const std::vector<std::string>& ids);

  /// Order-independent hash of a result set over its decoded IRIs (never
  /// over dictionary ids, which depend on insertion order).
  uint64_t ResultHash(const std::vector<uint64_t>& ids) const;
  /// Hash of every (subject IRI, WKT) pair in the store.
  uint64_t ContentHash() const;

  uint64_t features_built() const { return features_built_; }

 private:
  std::unique_ptr<eea::storage::DiskStorageManager> disk_;
  std::unique_ptr<eea::storage::BufferPool> pool_;
  eea::storage::PageId head_ = eea::storage::kInvalidPageId;
  eea::strabon::GeoStore store_;
  std::vector<uint64_t> iri_hash_;  // dictionary id - 1 -> Fnv1a(value)
  uint64_t features_built_ = 0;     // summed over every Build
};

/// A `side` x `side` query box, uniform over the world. One size for
/// every box keeps the work per query the same from seed to seed.
eea::geo::Box RandomBox(double side, eea::common::Rng* rng);

}  // namespace eebench

#endif  // EEBENCH_PIPELINE_H_
