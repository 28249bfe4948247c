#include "infer/shard_layout.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "kg/graph.h"
#include "util/crc32.h"
#include "util/io.h"
#include "util/kernels.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/thread_pool.h"

namespace cadrl {
namespace infer {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestTag[] = "cadrl_shards";
constexpr int kManifestVersion = 1;

// Section identifiers (ShardSection::table / ::part).
enum Table : uint32_t {
  kTabEntities = 0,
  kTabRaw = 1,
  kTabDemand = 2,
  kTabRelations = 3,
  kTabCategories = 4,
  kTabPolicy = 5,
};
enum Part : uint32_t {
  kPartRows = 0,
  kPartScales = 1,
  kPartZps = 2,
  kPartParams = 3,
};

bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string ShardFileName(int index) {
  std::ostringstream name;
  name << "shard-" << std::setw(5) << std::setfill('0') << index << ".cadrl";
  return name.str();
}

// --- Manifest -------------------------------------------------------------

struct ManifestShard {
  std::string file;
  int64_t row_begin = 0;
  int64_t row_count = 0;
  uint32_t crc = 0;
  uint64_t generation = 0;
};

struct ManifestLinear {
  int in = 0;
  int out = 0;
  bool has_bias = false;
};

// The text manifest is the publish point of a shard directory: shard files
// land first (each atomically), then the manifest atomically renames over
// the previous one — a reader sees either the old complete set or the new
// one. It carries every dimension the loader needs so a load never opens
// the original checkpoint.
struct Manifest {
  int dim = 0;
  Precision precision = Precision::kF32;
  float score_scale = 1.0f;
  int mode = 0;
  float ensemble_weight = 0.5f;
  int64_t num_entities = 0;
  int64_t num_categories = 0;
  bool demand = false;
  int64_t shard_rows = 0;
  uint64_t generation = 0;
  int policy_dim = 0;
  int policy_hidden = 0;
  bool share_history = false;
  bool condition_on_category = false;
  int lstm_c_in = 0, lstm_e_in = 0;
  ManifestLinear linears[6];  // mix_c, mix_e, head1_c, head2_c,
                              // head1_e, head2_e (FlattenPolicy's order)
  ManifestShard meta;
  std::vector<ManifestShard> shards;
};

constexpr const char* kLinearNames[6] = {"mix_c",   "mix_e",   "head1_c",
                                         "head2_c", "head1_e", "head2_e"};

// The manifest fields that describe the model itself: dims, score mode,
// precision and policy shapes (not shard_rows, the generation or the
// shard entries, which belong to one compile).
Manifest DescribeModel(const ScoringView& view, const PolicyParamsView& policy,
                       float score_scale, Precision precision) {
  Manifest m;
  m.dim = view.dim;
  m.precision = precision;
  m.score_scale = score_scale;
  m.mode = static_cast<int>(view.mode);
  m.ensemble_weight = view.ensemble_weight;
  m.num_entities = view.num_entities;
  m.num_categories = view.num_categories;
  m.demand = view.demand_entities.present();
  m.policy_dim = policy.dim;
  m.policy_hidden = policy.hidden;
  m.share_history = policy.share_history;
  m.condition_on_category = policy.condition_on_category;
  m.lstm_c_in = policy.lstm_c.in;
  m.lstm_e_in = policy.lstm_e.in;
  const LinearView* linears[6] = {&policy.mix_c,   &policy.mix_e,
                                  &policy.head1_c, &policy.head2_c,
                                  &policy.head1_e, &policy.head2_e};
  for (int i = 0; i < 6; ++i) {
    m.linears[i] = {linears[i]->in, linears[i]->out,
                    linears[i]->bias != nullptr};
  }
  return m;
}

std::string SerializeManifest(const Manifest& m) {
  std::ostringstream out;
  out << kManifestTag << ' ' << kManifestVersion << '\n';
  out << "dim " << m.dim << '\n';
  out << "precision " << PrecisionName(m.precision) << '\n';
  out << std::setprecision(9);
  out << "score_scale " << m.score_scale << '\n';
  out << "mode " << m.mode << '\n';
  out << "ensemble_weight " << m.ensemble_weight << '\n';
  out << "num_entities " << m.num_entities << '\n';
  out << "num_categories " << m.num_categories << '\n';
  out << "demand " << (m.demand ? 1 : 0) << '\n';
  out << "shard_rows " << m.shard_rows << '\n';
  out << "generation " << m.generation << '\n';
  out << "policy " << m.policy_dim << ' ' << m.policy_hidden << ' '
      << (m.share_history ? 1 : 0) << ' ' << (m.condition_on_category ? 1 : 0)
      << '\n';
  out << "lstm lstm_c " << m.lstm_c_in << '\n';
  out << "lstm lstm_e " << m.lstm_e_in << '\n';
  for (int i = 0; i < 6; ++i) {
    out << "linear " << kLinearNames[i] << ' ' << m.linears[i].in << ' '
        << m.linears[i].out << ' ' << (m.linears[i].has_bias ? 1 : 0) << '\n';
  }
  out << "meta " << m.meta.file << ' ' << m.meta.crc << ' '
      << m.meta.generation << '\n';
  out << "shards " << m.shards.size() << '\n';
  for (const ManifestShard& s : m.shards) {
    out << "shard " << s.file << ' ' << s.row_begin << ' ' << s.row_count
        << ' ' << s.crc << ' ' << s.generation << '\n';
  }
  return out.str();
}

Status ParseManifest(const std::string& payload, Manifest* m) {
  std::istringstream in(payload);
  std::string tag, precision_name;
  int version = 0;
  in >> tag >> version;
  if (in.fail() || tag != kManifestTag) {
    return Status::Corruption("not a shard manifest");
  }
  if (version != kManifestVersion) {
    return Status::Corruption("unsupported shard manifest version");
  }
  auto expect = [&in](const char* key) {
    std::string k;
    in >> k;
    return !in.fail() && k == key;
  };
  int demand = 0, share = 0, cond = 0;
  if (!expect("dim")) return Status::Corruption("manifest: missing dim");
  in >> m->dim;
  if (!expect("precision")) {
    return Status::Corruption("manifest: missing precision");
  }
  in >> precision_name;
  if (!ParsePrecision(precision_name, &m->precision)) {
    return Status::Corruption("manifest: unknown precision \"" +
                              precision_name + "\"");
  }
  if (!expect("score_scale")) {
    return Status::Corruption("manifest: missing score_scale");
  }
  in >> m->score_scale;
  if (!expect("mode")) return Status::Corruption("manifest: missing mode");
  in >> m->mode;
  if (!expect("ensemble_weight")) {
    return Status::Corruption("manifest: missing ensemble_weight");
  }
  in >> m->ensemble_weight;
  if (!expect("num_entities")) {
    return Status::Corruption("manifest: missing num_entities");
  }
  in >> m->num_entities;
  if (!expect("num_categories")) {
    return Status::Corruption("manifest: missing num_categories");
  }
  in >> m->num_categories;
  if (!expect("demand")) return Status::Corruption("manifest: missing demand");
  in >> demand;
  if (!expect("shard_rows")) {
    return Status::Corruption("manifest: missing shard_rows");
  }
  in >> m->shard_rows;
  if (!expect("generation")) {
    return Status::Corruption("manifest: missing generation");
  }
  in >> m->generation;
  if (!expect("policy")) return Status::Corruption("manifest: missing policy");
  in >> m->policy_dim >> m->policy_hidden >> share >> cond;
  m->demand = demand != 0;
  m->share_history = share != 0;
  m->condition_on_category = cond != 0;
  for (const char* name : {"lstm_c", "lstm_e"}) {
    std::string kind, got;
    in >> kind >> got;
    int* slot = std::strcmp(name, "lstm_c") == 0 ? &m->lstm_c_in
                                                 : &m->lstm_e_in;
    in >> *slot;
    if (in.fail() || kind != "lstm" || got != name) {
      return Status::Corruption("manifest: malformed lstm line");
    }
  }
  for (int i = 0; i < 6; ++i) {
    std::string kind, name;
    int bias = 0;
    in >> kind >> name >> m->linears[i].in >> m->linears[i].out >> bias;
    if (in.fail() || kind != "linear" || name != kLinearNames[i]) {
      return Status::Corruption("manifest: malformed linear line");
    }
    m->linears[i].has_bias = bias != 0;
  }
  std::string key;
  in >> key;
  if (in.fail() || key != "meta") {
    return Status::Corruption("manifest: missing meta line");
  }
  in >> m->meta.file >> m->meta.crc >> m->meta.generation;
  size_t num_shards = 0;
  in >> key >> num_shards;
  if (in.fail() || key != "shards") {
    return Status::Corruption("manifest: missing shard count");
  }
  m->shards.resize(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    ManifestShard& s = m->shards[i];
    in >> key >> s.file >> s.row_begin >> s.row_count >> s.crc >>
        s.generation;
    if (in.fail() || key != "shard") {
      return Status::Corruption("manifest: malformed shard line");
    }
  }
  if (in.fail() || m->dim <= 0 || m->num_entities < 0 || m->shard_rows <= 0) {
    return Status::Corruption("manifest: malformed fields");
  }
  return Status::OK();
}

// --- Blob assembly --------------------------------------------------------

struct SectionPlan {
  uint32_t table = 0;
  uint32_t part = 0;
  uint64_t size = 0;
  uint64_t rows = 0;
  uint64_t offset = 0;  // filled by LayoutSections
};

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

// Assigns 4096-aligned offsets and returns the total blob size.
uint64_t LayoutSections(std::vector<SectionPlan>* sections) {
  uint64_t off = sizeof(ShardHeader) + sections->size() * sizeof(ShardSection);
  for (SectionPlan& s : *sections) {
    off = AlignUp(off, kShardSectionAlign);
    s.offset = off;
    off += s.size;
  }
  return off;
}

// Serializes header + section table + (caller-filled payload area) into a
// blob string; returns it with the header CRC stamped.
std::string AssembleBlob(uint8_t kind, Precision precision, uint32_t dim,
                         int64_t row_begin, int64_t row_count,
                         const std::vector<SectionPlan>& sections,
                         uint64_t total) {
  std::string blob(total, '\0');
  ShardHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kShardMagic, sizeof(header.magic));
  header.version = kShardVersion;
  header.precision = static_cast<uint8_t>(precision);
  header.kind = kind;
  header.num_sections = static_cast<uint16_t>(sections.size());
  header.dim = dim;
  header.row_begin = row_begin;
  header.row_count = row_count;
  header.payload_bytes = total;
  char* base = blob.data();
  for (size_t i = 0; i < sections.size(); ++i) {
    ShardSection s;
    std::memset(&s, 0, sizeof(s));
    s.table = sections[i].table;
    s.part = sections[i].part;
    s.offset = sections[i].offset;
    s.size = sections[i].size;
    s.rows = sections[i].rows;
    std::memcpy(base + sizeof(ShardHeader) + i * sizeof(ShardSection), &s,
                sizeof(s));
  }
  // header_crc covers the header (with the CRC field zeroed) + section
  // table; stamp it after both are in place.
  std::memcpy(base, &header, sizeof(header));
  const size_t table_bytes =
      sizeof(ShardHeader) + sections.size() * sizeof(ShardSection);
  header.header_crc = Crc32(std::string_view(base, table_bytes));
  std::memcpy(base, &header, sizeof(header));
  return blob;
}

// Encodes `rows` rows of the f32 source starting at `row_begin` into the
// blob at the planned offsets. The one row encoder: in-process snapshots
// and shard files are both made of these bytes.
void EncodeTableSlice(const float* f32_rows, int64_t row_begin, uint64_t rows,
                      uint32_t dim, Precision precision, char* rows_dst,
                      char* scales_dst, char* zps_dst) {
  const float* src = f32_rows + row_begin * static_cast<int64_t>(dim);
  const size_t n = static_cast<size_t>(rows) * dim;
  switch (precision) {
    case Precision::kF32:
      std::memcpy(rows_dst, src, n * sizeof(float));
      return;
    case Precision::kF16:
      kernels::QuantizeRowF16(src, static_cast<int>(n),
                              reinterpret_cast<uint16_t*>(rows_dst));
      return;
    case Precision::kInt8: {
      int8_t* q = reinterpret_cast<int8_t*>(rows_dst);
      uint16_t* scales = reinterpret_cast<uint16_t*>(scales_dst);
      uint16_t* zps = reinterpret_cast<uint16_t*>(zps_dst);
      for (uint64_t i = 0; i < rows; ++i) {
        kernels::QuantizeRowQ8(src + i * dim, static_cast<int>(dim),
                               q + i * dim, scales + i, zps + i);
      }
      return;
    }
  }
  CADRL_CHECK(false) << "unknown precision";
}

size_t RowBytes(Precision p) {
  switch (p) {
    case Precision::kF32:
      return sizeof(float);
    case Precision::kF16:
      return sizeof(uint16_t);
    case Precision::kInt8:
      return sizeof(int8_t);
  }
  return 0;
}

void PlanTableSections(uint32_t table, uint64_t rows, uint32_t dim,
                       Precision precision,
                       std::vector<SectionPlan>* sections) {
  sections->push_back({table, kPartRows, rows * dim * RowBytes(precision),
                       rows, 0});
  if (precision == Precision::kInt8) {
    sections->push_back({table, kPartScales, rows * sizeof(uint16_t), rows,
                         0});
    sections->push_back({table, kPartZps, rows * sizeof(uint16_t), rows, 0});
  }
}

const SectionPlan* FindPlan(const std::vector<SectionPlan>& sections,
                            uint32_t table, uint32_t part) {
  for (const SectionPlan& s : sections) {
    if (s.table == table && s.part == part) return &s;
  }
  return nullptr;
}

// One entity-range shard: rows [row_begin, row_begin + rows) of the
// entities / raw / (demand) tables.
std::string BuildEntityShardBlob(const ScoringView& view, Precision precision,
                                 int64_t row_begin, uint64_t rows) {
  const uint32_t dim = static_cast<uint32_t>(view.dim);
  std::vector<SectionPlan> sections;
  PlanTableSections(kTabEntities, rows, dim, precision, &sections);
  PlanTableSections(kTabRaw, rows, dim, precision, &sections);
  const bool demand = view.demand_entities.present();
  if (demand) PlanTableSections(kTabDemand, rows, dim, precision, &sections);
  const uint64_t total = LayoutSections(&sections);
  std::string blob = AssembleBlob(/*kind=*/0, precision, dim, row_begin,
                                  static_cast<int64_t>(rows), sections, total);
  auto encode = [&](uint32_t table, const float* f32_rows) {
    const SectionPlan* r = FindPlan(sections, table, kPartRows);
    const SectionPlan* s = FindPlan(sections, table, kPartScales);
    const SectionPlan* z = FindPlan(sections, table, kPartZps);
    EncodeTableSlice(f32_rows, row_begin, rows, dim, precision,
                     blob.data() + r->offset,
                     s != nullptr ? blob.data() + s->offset : nullptr,
                     z != nullptr ? blob.data() + z->offset : nullptr);
  };
  encode(kTabEntities, view.entities.f32);
  encode(kTabRaw, view.raw_entities.f32);
  if (demand) encode(kTabDemand, view.demand_entities.f32);
  return blob;
}

// Flattens the policy parameters in the one blob order ShardLoader::Wire
// walks back: lstm_c, lstm_e, then the six linears, weight before bias.
std::vector<float> FlattenPolicy(const PolicyParamsView& pv) {
  std::vector<float> out;
  auto append = [&out](const float* src, size_t n) {
    out.insert(out.end(), src, src + n);
  };
  for (const LstmView* l : {&pv.lstm_c, &pv.lstm_e}) {
    const size_t h4 = static_cast<size_t>(4) * l->hidden;
    append(l->w_input, h4 * l->in);
    append(l->w_hidden, h4 * l->hidden);
    append(l->bias, h4);
  }
  for (const LinearView* l : {&pv.mix_c, &pv.mix_e, &pv.head1_c, &pv.head2_c,
                              &pv.head1_e, &pv.head2_e}) {
    append(l->weight, static_cast<size_t>(l->in) * l->out);
    if (l->bias != nullptr) append(l->bias, static_cast<size_t>(l->out));
  }
  return out;
}

// The meta shard: relations + categories tables and the policy blob.
std::string BuildMetaShardBlob(const ScoringView& view,
                               const PolicyParamsView& pv,
                               Precision precision) {
  const uint32_t dim = static_cast<uint32_t>(view.dim);
  const uint64_t rel_rows = static_cast<uint64_t>(kg::kNumRelations + 1);
  const uint64_t cat_rows = static_cast<uint64_t>(view.num_categories);
  const std::vector<float> policy = FlattenPolicy(pv);
  std::vector<SectionPlan> sections;
  PlanTableSections(kTabRelations, rel_rows, dim, precision, &sections);
  PlanTableSections(kTabCategories, cat_rows, dim, precision, &sections);
  sections.push_back(
      {kTabPolicy, kPartParams, policy.size() * sizeof(float), 0, 0});
  const uint64_t total = LayoutSections(&sections);
  std::string blob = AssembleBlob(/*kind=*/1, precision, dim, /*row_begin=*/0,
                                  /*row_count=*/0, sections, total);
  auto encode = [&](uint32_t table, const float* f32_rows, uint64_t rows) {
    const SectionPlan* r = FindPlan(sections, table, kPartRows);
    const SectionPlan* s = FindPlan(sections, table, kPartScales);
    const SectionPlan* z = FindPlan(sections, table, kPartZps);
    EncodeTableSlice(f32_rows, /*row_begin=*/0, rows, dim, precision,
                     blob.data() + r->offset,
                     s != nullptr ? blob.data() + s->offset : nullptr,
                     z != nullptr ? blob.data() + z->offset : nullptr);
  };
  encode(kTabRelations, view.relations.f32, rel_rows);
  encode(kTabCategories, view.categories.f32, cat_rows);
  const SectionPlan* p = FindPlan(sections, kTabPolicy, kPartParams);
  std::memcpy(blob.data() + p->offset, policy.data(),
              policy.size() * sizeof(float));
  return blob;
}

// Cheap reuse check for an existing shard file: parses the durability
// footer from the file tail (no full read) and compares its payload CRC —
// the delta writer's way of confirming "the bytes already on disk are the
// bytes I would write" without re-reading gigabytes.
bool TailCrcMatches(const std::string& path, uint32_t want_crc) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return false;
  const std::streamoff size = in.tellg();
  const std::streamoff tail_len = std::min<std::streamoff>(size, 160);
  if (tail_len <= 0) return false;
  std::string tail(static_cast<size_t>(tail_len), '\0');
  in.seekg(size - tail_len);
  in.read(tail.data(), tail_len);
  if (!in.good()) return false;
  const size_t pos = tail.rfind("cadrl_footer");
  if (pos == std::string::npos) return false;
  std::istringstream footer(tail.substr(pos));
  std::string tag;
  int version = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  footer >> tag >> version >> payload_size >> crc;
  if (footer.fail()) return false;
  const uint64_t footer_begin =
      static_cast<uint64_t>(size - tail_len) + pos;
  return payload_size == footer_begin && crc == want_crc;
}

// --- Loader helpers -------------------------------------------------------

// The section table of a structurally valid blob (see ValidateShardBlob).
std::vector<ShardSection> ReadSections(std::string_view payload) {
  ShardHeader header;
  std::memcpy(&header, payload.data(), sizeof(header));
  std::vector<ShardSection> sections(header.num_sections);
  for (size_t i = 0; i < sections.size(); ++i) {
    std::memcpy(&sections[i],
                payload.data() + sizeof(ShardHeader) + i * sizeof(ShardSection),
                sizeof(ShardSection));
  }
  return sections;
}

Status ValidateShardBlob(std::string_view payload, const std::string& what,
                         Precision precision, uint8_t kind, uint32_t dim,
                         int64_t row_begin, int64_t row_count) {
  if (payload.size() < sizeof(ShardHeader)) {
    return Status::Corruption(what + ": truncated shard header");
  }
  ShardHeader header;
  std::memcpy(&header, payload.data(), sizeof(header));
  if (std::memcmp(header.magic, kShardMagic, sizeof(header.magic)) != 0) {
    return Status::Corruption(what + ": bad shard magic");
  }
  if (header.version != kShardVersion) {
    return Status::Corruption(what + ": unsupported shard version");
  }
  const size_t table_bytes =
      sizeof(ShardHeader) +
      static_cast<size_t>(header.num_sections) * sizeof(ShardSection);
  if (payload.size() < table_bytes) {
    return Status::Corruption(what + ": truncated section table");
  }
  // Recompute the header CRC with the stored field zeroed.
  std::string head(payload.substr(0, table_bytes));
  ShardHeader zeroed = header;
  zeroed.header_crc = 0;
  std::memcpy(head.data(), &zeroed, sizeof(zeroed));
  if (Crc32(head) != header.header_crc) {
    return Status::Corruption(what + ": shard header checksum mismatch");
  }
  if (header.precision != static_cast<uint8_t>(precision) ||
      header.kind != kind || header.dim != dim ||
      header.row_begin != row_begin || header.row_count != row_count ||
      header.payload_bytes != payload.size()) {
    return Status::Corruption(what + ": shard header disagrees with manifest");
  }
  for (const ShardSection& s : ReadSections(payload)) {
    if (s.offset % kShardSectionAlign != 0 || s.offset < table_bytes ||
        s.size > payload.size() || s.offset > payload.size() - s.size) {
      return Status::Corruption(what + ": shard section out of bounds");
    }
  }
  return Status::OK();
}

const ShardSection* FindSection(const std::vector<ShardSection>& sections,
                                uint32_t table, uint32_t part) {
  for (const ShardSection& s : sections) {
    if (s.table == table && s.part == part) return &s;
  }
  return nullptr;
}

// Wires one flat sub-table RowTable from a shard blob's sections.
Status WireTable(std::string_view payload,
                 const std::vector<ShardSection>& sections,
                 const std::string& what, uint32_t table, Precision precision,
                 uint64_t rows, uint32_t dim, RowTable* out) {
  const ShardSection* r = FindSection(sections, table, kPartRows);
  if (r == nullptr || r->rows != rows ||
      r->size != rows * dim * RowBytes(precision)) {
    return Status::Corruption(what + ": missing or missized table section");
  }
  const char* base = payload.data();
  switch (precision) {
    case Precision::kF32:
      out->f32 = reinterpret_cast<const float*>(base + r->offset);
      break;
    case Precision::kF16:
      out->f16 = reinterpret_cast<const uint16_t*>(base + r->offset);
      break;
    case Precision::kInt8: {
      const ShardSection* s = FindSection(sections, table, kPartScales);
      const ShardSection* z = FindSection(sections, table, kPartZps);
      if (s == nullptr || z == nullptr ||
          s->size != rows * sizeof(uint16_t) ||
          z->size != rows * sizeof(uint16_t)) {
        return Status::Corruption(what + ": missing int8 scale/zp sections");
      }
      out->q8 = reinterpret_cast<const int8_t*>(base + r->offset);
      out->q8_scale = reinterpret_cast<const uint16_t*>(base + s->offset);
      out->q8_zp = reinterpret_cast<const uint16_t*>(base + z->offset);
      break;
    }
  }
  return Status::OK();
}

}  // namespace

bool ShardVerifyFromEnv() { return EnvFlag("CADRL_SHARD_VERIFY"); }

Status CompileToShardDir(const ScoringView& view,
                         const PolicyParamsView& policy, float score_scale,
                         const CompiledModelOptions& options,
                         const std::string& dir,
                         const ShardWriteOptions& write_options,
                         ShardWriteStats* stats) {
  CADRL_CHECK(view.precision == Precision::kF32)
      << "CompileToShardDir encodes from the live (f32) view";
  CADRL_CHECK(stats != nullptr);
  *stats = ShardWriteStats();
  const Precision prec = options.precision;
  const int64_t shard_rows = std::max<int64_t>(1, write_options.shard_rows);
  const int64_t ent_rows = view.num_entities;
  const int num_shards =
      static_cast<int>((ent_rows + shard_rows - 1) / shard_rows);

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create shard dir " + dir + ": " +
                           ec.message());
  }

  // Best-effort parse of the previous manifest: the delta identity map.
  Manifest old;
  bool have_old = false;
  std::string old_payload;
  if (ReadFileVerified(dir + "/" + kShardManifestName, &old_payload).ok() &&
      ParseManifest(old_payload, &old).ok()) {
    have_old = true;
  }
  std::unordered_map<std::string, const ManifestShard*> old_by_file;
  if (have_old) {
    for (const ManifestShard& s : old.shards) old_by_file[s.file] = &s;
  }

  Manifest next = DescribeModel(view, policy, score_scale, prec);
  next.shard_rows = shard_rows;
  next.shards.resize(static_cast<size_t>(num_shards));

  const uint64_t new_generation = have_old ? old.generation + 1 : 1;
  std::vector<char> written(static_cast<size_t>(num_shards), 0);
  std::mutex stats_mu;

  // Encode + write the entity shards in parallel; each index owns its
  // manifest slot, so the only shared state is the byte counter.
  ThreadPool pool(ThreadPool::ClampThreads(write_options.threads));
  Status status = pool.ParallelFor(0, num_shards, 1, [&](int64_t i) {
    const int64_t row_begin = i * shard_rows;
    const uint64_t rows = static_cast<uint64_t>(
        std::min<int64_t>(shard_rows, ent_rows - row_begin));
    const std::string blob = BuildEntityShardBlob(view, prec, row_begin, rows);
    ManifestShard& entry = next.shards[static_cast<size_t>(i)];
    entry.file = ShardFileName(static_cast<int>(i));
    entry.row_begin = row_begin;
    entry.row_count = static_cast<int64_t>(rows);
    entry.crc = Crc32(blob);
    const auto it = old_by_file.find(entry.file);
    if (it != old_by_file.end() && it->second->crc == entry.crc &&
        it->second->row_begin == entry.row_begin &&
        it->second->row_count == entry.row_count &&
        TailCrcMatches(dir + "/" + entry.file, entry.crc)) {
      entry.generation = it->second->generation;
      return Status::OK();
    }
    entry.generation = new_generation;
    written[static_cast<size_t>(i)] = 1;
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      stats->bytes_written += blob.size();
    }
    return WriteFileAtomic(dir + "/" + entry.file, blob);
  });
  CADRL_RETURN_IF_ERROR(status);

  // The meta shard, with the same CRC-based delta skip.
  const std::string meta_blob = BuildMetaShardBlob(view, policy, prec);
  next.meta.file = kShardMetaName;
  next.meta.crc = Crc32(meta_blob);
  if (have_old && old.meta.crc == next.meta.crc &&
      TailCrcMatches(dir + "/" + kShardMetaName, next.meta.crc)) {
    next.meta.generation = old.meta.generation;
  } else {
    next.meta.generation = new_generation;
    stats->meta_written = true;
    stats->bytes_written += meta_blob.size();
    CADRL_RETURN_IF_ERROR(
        WriteFileAtomic(dir + "/" + kShardMetaName, meta_blob));
  }

  stats->shards_total = num_shards;
  for (const char w : written) {
    if (w != 0) {
      ++stats->shards_written;
    } else {
      ++stats->shards_reused;
    }
  }

  // Publish: rewrite the manifest only when something changed. An
  // unchanged compile (same inputs, same options) is a no-op that keeps
  // the generation — reloaders can use the generation as a cheap "did
  // anything move" check.
  if (stats->shards_written == 0 && !stats->meta_written && have_old) {
    next.generation = old.generation;
    if (SerializeManifest(next) == old_payload) {
      stats->generation = old.generation;
      return Status::OK();
    }
  }
  next.generation = new_generation;
  stats->generation = new_generation;
  stats->manifest_written = true;
  return WriteFileAtomic(dir + "/" + kShardManifestName,
                         SerializeManifest(next));
}

namespace {

// One shard-format blob as the wiring routine sees it: the holder that
// pins its bytes (a file mapping or an in-process buffer) and the payload
// inside them, durability footer excluded.
struct ShardBlob {
  std::shared_ptr<const util::MmapFile> holder;
  std::string_view payload;
  std::string name;  // for error messages
};

ShardBlob InProcessBlob(std::string bytes, std::string name) {
  std::shared_ptr<const util::MmapFile> holder =
      util::MmapFile::FromBytes(std::move(bytes), name);
  const std::string_view payload(holder->data(), holder->size());
  return {std::move(holder), payload, std::move(name)};
}

}  // namespace

// Wires CompiledModel views into shard blobs; the only code with private
// access (friend), and the only code that turns blob bytes into a model.
class ShardLoader {
 public:
  // The one wiring routine, for in-process builds and shard directories
  // alike. `entity` holds the entity-range blobs in row order, each
  // covering m.shard_rows rows (the last possibly fewer); `meta` holds the
  // relations, categories and policy. Blob structure is the caller's
  // promise (ValidateShardBlob for files, construction for Build); the
  // section sizes are checked here against the manifest dims. A single
  // entity blob is wired flat (no segment indirection).
  static Status Wire(const Manifest& m, const std::vector<ShardBlob>& entity,
                     const ShardBlob& meta, CompiledModel* model) {
    const Precision prec = m.precision;
    const uint32_t dim = static_cast<uint32_t>(m.dim);
    const size_t num_blobs = entity.size();
    const bool flat = num_blobs == 1;

    ScoringView& sv = model->scoring_;
    sv.dim = m.dim;
    sv.mode = static_cast<ScoreMode>(m.mode);
    sv.ensemble_weight = m.ensemble_weight;
    sv.precision = prec;
    sv.num_entities = m.num_entities;
    sv.num_categories = m.num_categories;

    const uint32_t ids[3] = {kTabEntities, kTabRaw, kTabDemand};
    RowTable* tables[3] = {&sv.entities, &sv.raw_entities,
                           &sv.demand_entities};
    std::vector<RowTable>* segments[3] = {&model->ent_segments_,
                                          &model->raw_segments_,
                                          &model->demand_segments_};
    const int num_tables = m.demand ? 3 : 2;
    for (int t = 0; t < num_tables && !flat; ++t) {
      segments[t]->resize(num_blobs);
      tables[t]->segments = segments[t]->data();
      tables[t]->num_segments = static_cast<int>(num_blobs);
      tables[t]->segment_rows = m.shard_rows;
    }
    for (size_t i = 0; i < num_blobs; ++i) {
      const ShardBlob& b = entity[i];
      const std::vector<ShardSection> sections = ReadSections(b.payload);
      const int64_t row_begin = static_cast<int64_t>(i) * m.shard_rows;
      const uint64_t rows = static_cast<uint64_t>(
          std::min<int64_t>(m.shard_rows, m.num_entities - row_begin));
      for (int t = 0; t < num_tables; ++t) {
        RowTable* dst = flat ? tables[t] : &(*segments[t])[i];
        CADRL_RETURN_IF_ERROR(WireTable(b.payload, sections, b.name, ids[t],
                                        prec, rows, dim, dst));
      }
      model->blobs_.push_back(b.holder);
    }

    // The meta blob: relations, categories, and the policy parameters.
    const std::vector<ShardSection> meta_sections = ReadSections(meta.payload);
    const uint64_t rel_rows = static_cast<uint64_t>(kg::kNumRelations + 1);
    CADRL_RETURN_IF_ERROR(WireTable(meta.payload, meta_sections, meta.name,
                                    kTabRelations, prec, rel_rows, dim,
                                    &sv.relations));
    CADRL_RETURN_IF_ERROR(WireTable(
        meta.payload, meta_sections, meta.name, kTabCategories, prec,
        static_cast<uint64_t>(m.num_categories), dim, &sv.categories));
    model->blobs_.push_back(meta.holder);

    // Wire the policy view by walking the blob in FlattenPolicy's order
    // with the dims the manifest recorded.
    const ShardSection* psec =
        FindSection(meta_sections, kTabPolicy, kPartParams);
    if (psec == nullptr) {
      return Status::Corruption(meta.name + ": missing policy section");
    }
    const float* cursor =
        reinterpret_cast<const float*>(meta.payload.data() + psec->offset);
    const float* pend = cursor + psec->size / sizeof(float);
    PolicyParamsView& p = model->policy_;
    p.dim = m.policy_dim;
    p.hidden = m.policy_hidden;
    p.share_history = m.share_history;
    p.condition_on_category = m.condition_on_category;
    auto take = [&cursor, &pend](size_t n) -> const float* {
      if (cursor + n > pend) return nullptr;
      const float* at = cursor;
      cursor += n;
      return at;
    };
    auto wire_lstm = [&](LstmView* l, int in) -> bool {
      l->in = in;
      l->hidden = m.policy_hidden;
      const size_t h4 = static_cast<size_t>(4) * l->hidden;
      l->w_input = take(h4 * l->in);
      l->w_hidden = take(h4 * l->hidden);
      l->bias = take(h4);
      return l->w_input != nullptr && l->w_hidden != nullptr &&
             l->bias != nullptr;
    };
    LinearView* plin[6] = {&p.mix_c,   &p.mix_e,   &p.head1_c,
                           &p.head2_c, &p.head1_e, &p.head2_e};
    bool policy_ok =
        wire_lstm(&p.lstm_c, m.lstm_c_in) && wire_lstm(&p.lstm_e, m.lstm_e_in);
    for (int i = 0; policy_ok && i < 6; ++i) {
      plin[i]->in = m.linears[i].in;
      plin[i]->out = m.linears[i].out;
      plin[i]->weight =
          take(static_cast<size_t>(plin[i]->in) * plin[i]->out);
      plin[i]->bias = m.linears[i].has_bias
                          ? take(static_cast<size_t>(plin[i]->out))
                          : nullptr;
      policy_ok = plin[i]->weight != nullptr &&
                  (!m.linears[i].has_bias || plin[i]->bias != nullptr);
    }
    if (!policy_ok || cursor != pend) {
      return Status::Corruption(meta.name +
                                ": policy section size disagrees with "
                                "manifest dims");
    }

    // Logical section footprint: table payloads, int8 row metadata, and
    // the policy blob — the same figures for every backing.
    size_t table_rows = static_cast<size_t>(m.num_entities) * 2 + rel_rows +
                        static_cast<size_t>(m.num_categories);
    if (m.demand) table_rows += static_cast<size_t>(m.num_entities);
    ArenaBytes& ab = model->arena_bytes_;
    ab.store_rows = table_rows * static_cast<size_t>(m.dim) * RowBytes(prec);
    if (prec == Precision::kInt8) {
      ab.store_scales = table_rows * 2 * sizeof(uint16_t);
    }
    ab.policy_params = psec->size;
    model->score_scale_ = m.score_scale;
    return Status::OK();
  }

  // The directory reader: manifest, mappings, footer/CRC checks and delta
  // reuse of the previous model's mappings; the blobs then go through
  // Wire like any other snapshot's.
  static Status Load(const std::string& dir, const ShardLoadOptions& options,
                     std::shared_ptr<const CompiledModel> previous,
                     std::shared_ptr<const CompiledModel>* out) {
    CADRL_CHECK(out != nullptr);
    std::string payload;
    CADRL_RETURN_IF_ERROR(
        ReadFileVerified(dir + "/" + kShardManifestName, &payload));
    Manifest m;
    CADRL_RETURN_IF_ERROR(
        ParseManifest(payload, &m).Annotate(dir + "/" + kShardManifestName));

    // Shard coverage must be exactly [0, num_entities) in shard_rows
    // steps: ResolveRow's division depends on every shard but the last
    // holding precisely shard_rows rows.
    const int num_shards = static_cast<int>(m.shards.size());
    const int expect_shards = static_cast<int>(
        (m.num_entities + m.shard_rows - 1) / m.shard_rows);
    if (num_shards != expect_shards) {
      return Status::Corruption(dir + ": manifest shard count " +
                                std::to_string(num_shards) +
                                " does not cover num_entities");
    }
    for (int i = 0; i < num_shards; ++i) {
      const ManifestShard& s = m.shards[static_cast<size_t>(i)];
      const int64_t begin = static_cast<int64_t>(i) * m.shard_rows;
      const int64_t rows =
          std::min<int64_t>(m.shard_rows, m.num_entities - begin);
      if (s.row_begin != begin || s.row_count != rows) {
        return Status::Corruption(dir + ": shard " + s.file +
                                  " has a non-contiguous row range");
      }
    }

    auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
    model->from_dir_ = true;
    const Precision prec = m.precision;
    const uint32_t dim = static_cast<uint32_t>(m.dim);

    // Index the previous model's shard set for delta reuse: an unchanged
    // manifest entry means unchanged bytes, so the previous mapping (still
    // pinned by its shared_ptr even if the file was replaced since) serves
    // the new model too.
    std::unordered_map<std::string, size_t> prev_by_file;
    const bool have_prev = previous != nullptr && previous->mapped();
    if (have_prev) {
      for (size_t i = 0; i < previous->shard_infos_.size(); ++i) {
        prev_by_file[previous->shard_infos_[i].file] = i;
      }
    }
    auto reusable = [&](const ManifestShard& s) -> int64_t {
      if (!have_prev) return -1;
      const auto it = prev_by_file.find(s.file);
      if (it == prev_by_file.end()) return -1;
      const ShardSetInfo& p = previous->shard_infos_[it->second];
      if (p.crc != s.crc || p.row_begin != s.row_begin ||
          p.row_count != s.row_count || p.generation != s.generation) {
        return -1;
      }
      return static_cast<int64_t>(it->second);
    };

    std::vector<ShardBlob> entity(static_cast<size_t>(num_shards));
    model->shard_infos_.resize(static_cast<size_t>(num_shards));
    ShardSetStats& stats = model->shard_stats_;
    stats.shard_count = num_shards;
    stats.generation = m.generation;

    for (int i = 0; i < num_shards; ++i) {
      const ManifestShard& s = m.shards[static_cast<size_t>(i)];
      std::shared_ptr<const util::MmapFile> mapping;
      const int64_t prev_idx = reusable(s);
      bool remapped = false;
      if (prev_idx >= 0) {
        // Reused mappings were validated when first mapped and are
        // immutable — no re-validation, which is what keeps a delta
        // reload's cost proportional to the *changed* shards only.
        mapping = previous->blobs_[static_cast<size_t>(prev_idx)];
        ++stats.shards_reused;
      } else {
        CADRL_RETURN_IF_ERROR(util::MmapFile::Open(dir + "/" + s.file,
                                                   &mapping));
        remapped = true;
        ++stats.shards_remapped;
      }
      std::string_view blob;
      uint32_t footer_crc = 0;
      CADRL_RETURN_IF_ERROR(
          VerifyFooterOnView(std::string_view(mapping->data(),
                                              mapping->size()),
                             remapped && options.verify_payload, &blob,
                             &footer_crc)
              .Annotate(s.file));
      if (footer_crc != s.crc) {
        return Status::Corruption(s.file +
                                  ": shard CRC disagrees with manifest "
                                  "(stale or torn shard file)");
      }
      if (remapped) {
        CADRL_RETURN_IF_ERROR(ValidateShardBlob(blob, s.file, prec,
                                                /*kind=*/0, dim, s.row_begin,
                                                s.row_count));
      }
      entity[static_cast<size_t>(i)] = {std::move(mapping), blob, s.file};
      ShardSetInfo& info = model->shard_infos_[static_cast<size_t>(i)];
      info.file = s.file;
      info.row_begin = s.row_begin;
      info.row_count = s.row_count;
      info.crc = s.crc;
      info.generation = s.generation;
      info.remapped = remapped;
    }

    // The meta shard.
    std::shared_ptr<const util::MmapFile> meta_mapping;
    bool meta_remapped = true;
    if (have_prev && previous->meta_crc_ == m.meta.crc &&
        previous->meta_generation_ == m.meta.generation) {
      meta_mapping = previous->blobs_.back();
      meta_remapped = false;
    } else {
      CADRL_RETURN_IF_ERROR(
          util::MmapFile::Open(dir + "/" + m.meta.file, &meta_mapping));
    }
    std::string_view meta_blob;
    uint32_t meta_crc = 0;
    CADRL_RETURN_IF_ERROR(
        VerifyFooterOnView(
            std::string_view(meta_mapping->data(), meta_mapping->size()),
            meta_remapped && options.verify_payload, &meta_blob, &meta_crc)
            .Annotate(m.meta.file));
    if (meta_crc != m.meta.crc) {
      return Status::Corruption(m.meta.file +
                                ": meta shard CRC disagrees with manifest");
    }
    CADRL_RETURN_IF_ERROR(ValidateShardBlob(meta_blob, m.meta.file, prec,
                                            /*kind=*/1, dim, 0, 0));
    model->meta_crc_ = m.meta.crc;
    model->meta_generation_ = m.meta.generation;

    CADRL_RETURN_IF_ERROR(
        Wire(m, entity, {meta_mapping, meta_blob, m.meta.file}, model.get()));
    for (const auto& mapping : model->blobs_) {
      stats.mapped_bytes += mapping->size();
      if (!mapping->mapped()) stats.fallback_buffered = true;
    }
    *out = std::move(model);
    return Status::OK();
  }
};

Status LoadFromShardDir(const std::string& dir,
                        const ShardLoadOptions& options,
                        std::shared_ptr<const CompiledModel> previous,
                        std::shared_ptr<const CompiledModel>* out) {
  return ShardLoader::Load(dir, options, std::move(previous), out);
}

std::shared_ptr<const CompiledModel> CompiledModel::Build(
    const ScoringView& view, const PolicyParamsView& policy,
    float score_scale, const CompiledModelOptions& options) {
  CADRL_CHECK(view.precision == Precision::kF32)
      << "Build quantizes from the live (f32) view";
  const Precision prec = options.precision;
  Manifest m = DescribeModel(view, policy, score_scale, prec);
  m.shard_rows = std::max<int64_t>(1, view.num_entities);
  const std::vector<ShardBlob> entity = {InProcessBlob(
      BuildEntityShardBlob(view, prec, 0,
                           static_cast<uint64_t>(view.num_entities)),
      "in-process entity blob")};
  const ShardBlob meta = InProcessBlob(BuildMetaShardBlob(view, policy, prec),
                                       "in-process meta blob");
  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  const Status status = ShardLoader::Wire(m, entity, meta, model.get());
  CADRL_CHECK(status.ok()) << status.ToString();
  return model;
}

}  // namespace infer
}  // namespace cadrl
