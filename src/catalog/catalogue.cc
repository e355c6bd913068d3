#include "catalog/catalogue.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/string_util.h"

namespace exearth::catalog {

using common::Result;
using common::Status;

namespace {
constexpr char kObservedIn[] = "http://extremeearth.eu/ontology#observedIn";
constexpr char kObservedYear[] =
    "http://extremeearth.eu/ontology#observedYear";
constexpr char kObservedDay[] = "http://extremeearth.eu/ontology#observedDay";
}  // namespace

const char* SemanticCatalogue::ObservedInPredicate() { return kObservedIn; }
const char* SemanticCatalogue::ObservedYearPredicate() {
  return kObservedYear;
}
const char* SemanticCatalogue::ObservedDayPredicate() { return kObservedDay; }

void SemanticCatalogue::Ingest(const raster::SceneMetadata& metadata) {
  products_.push_back(metadata);
  built_ = false;
}

void SemanticCatalogue::AddObservation(const std::string& feature_iri,
                                       const std::string& class_iri,
                                       const geo::Geometry& geometry,
                                       const std::string& product_id,
                                       int year, int day_of_year) {
  knowledge_.AddFeature(feature_iri, geometry);
  rdf::TripleStore& t = knowledge_.triples();
  t.Add(rdf::Term::Iri(feature_iri), rdf::Term::Iri(rdf::vocab::kRdfType),
        rdf::Term::Iri(class_iri));
  t.Add(rdf::Term::Iri(feature_iri), rdf::Term::Iri(kObservedIn),
        rdf::Term::Iri("http://extremeearth.eu/product/" + product_id));
  t.Add(rdf::Term::Iri(feature_iri), rdf::Term::Iri(kObservedYear),
        rdf::Term::Literal(std::to_string(year), rdf::vocab::kXsdInteger));
  t.Add(rdf::Term::Iri(feature_iri), rdf::Term::Iri(kObservedDay),
        rdf::Term::Literal(std::to_string(day_of_year),
                           rdf::vocab::kXsdInteger));
  built_ = false;
}

Status SemanticCatalogue::Build() {
  std::vector<geo::RTree::Entry> entries;
  entries.reserve(products_.size());
  for (size_t i = 0; i < products_.size(); ++i) {
    entries.push_back({products_[i].footprint, static_cast<int64_t>(i)});
  }
  product_index_ = geo::RTree::BulkLoad(std::move(entries));
  auto built = knowledge_.Build();
  if (!built.ok()) return built.status();
  built_ = true;
  return Status::OK();
}

std::vector<raster::SceneMetadata> SemanticCatalogue::Search(
    const SearchRequest& request, SearchStats* stats) const {
  EEA_CHECK(built_) << "Search before Build()";
  SearchStats st;
  std::vector<size_t> candidate_ids;
  if (request.area.has_value()) {
    product_index_.VisitWith(*request.area, [&](int64_t id) {
      candidate_ids.push_back(static_cast<size_t>(id));
      return true;
    });
    std::sort(candidate_ids.begin(), candidate_ids.end());
  } else {
    candidate_ids.resize(products_.size());
    for (size_t i = 0; i < products_.size(); ++i) candidate_ids[i] = i;
  }
  std::vector<raster::SceneMetadata> out;
  for (size_t id : candidate_ids) {
    const raster::SceneMetadata& md = products_[id];
    ++st.candidates;
    if (request.year.has_value() && md.year != *request.year) continue;
    if (request.day_from.has_value() && md.day_of_year < *request.day_from)
      continue;
    if (request.day_to.has_value() && md.day_of_year > *request.day_to)
      continue;
    if (request.mission.has_value() && md.mission != *request.mission)
      continue;
    if (request.max_cloud_cover.has_value() &&
        md.cloud_cover > *request.max_cloud_cover)
      continue;
    out.push_back(md);
    if (request.limit > 0 && out.size() >= request.limit) break;
  }
  st.results = out.size();
  if (stats != nullptr) *stats = st;
  return out;
}

Result<uint64_t> SemanticCatalogue::CountObservations(
    const std::string& class_iri, const geo::Box& area,
    std::optional<int> year) const {
  EEA_CHECK(built_) << "CountObservations before Build()";
  rdf::Query q;
  q.where.push_back(rdf::TriplePattern{
      rdf::PatternSlot::Var("f"),
      rdf::PatternSlot::Iri(rdf::vocab::kRdfType),
      rdf::PatternSlot::Iri(class_iri)});
  if (year.has_value()) {
    q.where.push_back(rdf::TriplePattern{
        rdf::PatternSlot::Var("f"), rdf::PatternSlot::Iri(kObservedYear),
        rdf::PatternSlot::Of(rdf::Term::Literal(std::to_string(*year),
                                                rdf::vocab::kXsdInteger))});
  }
  EEA_ASSIGN_OR_RETURN(std::vector<rdf::Binding> rows,
                       knowledge_.QueryWithSpatialFilter(q, "f", area,
                                                         /*use_index=*/true));
  return static_cast<uint64_t>(rows.size());
}

Result<SemanticCatalogue::MaxExtent> SemanticCatalogue::MaxExtentDay(
    const std::string& class_iri, const geo::Box& area, int year) const {
  EEA_CHECK(built_) << "MaxExtentDay before Build()";
  rdf::Query q;
  q.where.push_back(rdf::TriplePattern{
      rdf::PatternSlot::Var("f"),
      rdf::PatternSlot::Iri(rdf::vocab::kRdfType),
      rdf::PatternSlot::Iri(class_iri)});
  q.where.push_back(rdf::TriplePattern{
      rdf::PatternSlot::Var("f"), rdf::PatternSlot::Iri(kObservedYear),
      rdf::PatternSlot::Of(rdf::Term::Literal(std::to_string(year),
                                              rdf::vocab::kXsdInteger))});
  q.where.push_back(rdf::TriplePattern{rdf::PatternSlot::Var("f"),
                                       rdf::PatternSlot::Iri(kObservedDay),
                                       rdf::PatternSlot::Var("day")});
  EEA_ASSIGN_OR_RETURN(std::vector<rdf::Binding> rows,
                       knowledge_.QueryWithSpatialFilter(q, "f", area,
                                                         /*use_index=*/true));
  std::map<int, uint64_t> per_day;
  for (const rdf::Binding& b : rows) {
    auto it = b.find("day");
    if (it == b.end()) continue;
    const rdf::Term& term = knowledge_.triples().dict().Decode(it->second);
    int64_t day = 0;
    if (!common::ParseInt64(term.value, &day)) continue;
    ++per_day[static_cast<int>(day)];
  }
  if (per_day.empty()) {
    return Status::NotFound("no observations of " + class_iri);
  }
  MaxExtent best;
  for (const auto& [day, count] : per_day) {
    if (count > best.observations) {
      best.day_of_year = day;
      best.observations = count;
    }
  }
  return best;
}

double SemanticCatalogue::ExtrapolateLatency(double measured_seconds,
                                             uint64_t measured_records,
                                             uint64_t target_records) {
  EEA_CHECK(measured_records > 1);
  // t(n) = c * log2(n) + k; assume the constant-result term k dominates is
  // false — scale the logarithmic part.
  const double log_measured = std::log2(static_cast<double>(measured_records));
  const double log_target = std::log2(static_cast<double>(target_records));
  return measured_seconds * (log_target / log_measured);
}

}  // namespace exearth::catalog
