#include "sit/serialization.h"

#include <cinttypes>

#include <fstream>
#include <sstream>
#include <vector>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace sitstats {

namespace {

/// Reads one line; fails with a contextual message at EOF.
Status ReadLine(std::istringstream* in, const std::string& what,
                std::string* line) {
  if (!std::getline(*in, *line)) {
    return Status::InvalidArgument("unexpected end of input, expected " +
                                   what);
  }
  return Status::OK();
}

Result<double> ParseDouble(const std::string& token,
                           const std::string& what) {
  char* end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument("cannot parse " + what + " from '" +
                                   token + "'");
  }
  return value;
}

Result<Histogram> ParseHistogramBody(std::istringstream* in) {
  std::string line;
  SITSTATS_RETURN_IF_ERROR(ReadLine(in, "histogram header", &line));
  std::vector<std::string> header = Split(line, ' ');
  if (header.size() != 2 || header[0] != "histogram") {
    return Status::InvalidArgument("bad histogram header: '" + line + "'");
  }
  SITSTATS_ASSIGN_OR_RETURN(double n_raw,
                            ParseDouble(header[1], "bucket count"));
  if (n_raw < 0 || n_raw > 10'000'000) {
    return Status::InvalidArgument("implausible bucket count");
  }
  size_t n = static_cast<size_t>(n_raw);
  std::vector<Bucket> buckets;
  buckets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SITSTATS_RETURN_IF_ERROR(ReadLine(in, "bucket line", &line));
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() != 4) {
      return Status::InvalidArgument("bad bucket line: '" + line + "'");
    }
    Bucket b;
    SITSTATS_ASSIGN_OR_RETURN(b.lo, ParseDouble(fields[0], "bucket lo"));
    SITSTATS_ASSIGN_OR_RETURN(b.hi, ParseDouble(fields[1], "bucket hi"));
    SITSTATS_ASSIGN_OR_RETURN(b.frequency,
                              ParseDouble(fields[2], "bucket frequency"));
    SITSTATS_ASSIGN_OR_RETURN(b.distinct_values,
                              ParseDouble(fields[3], "bucket distinct"));
    buckets.push_back(b);
  }
  Histogram histogram(std::move(buckets));
  SITSTATS_RETURN_IF_ERROR(histogram.CheckValid());
  return histogram;
}

void SerializeHistogramBody(const Histogram& histogram, std::string* out) {
  out->append("histogram " + std::to_string(histogram.num_buckets()) + "\n");
  for (size_t i = 0; i < histogram.num_buckets(); ++i) {
    const Bucket& b = histogram.bucket(i);
    out->append(FormatExact(b.lo) + " " + FormatExact(b.hi) + " " +
                FormatExact(b.frequency) + " " +
                FormatExact(b.distinct_values) + "\n");
  }
}

Result<Sit> ParseSitBody(std::istringstream* in) {
  std::string line;
  SITSTATS_RETURN_IF_ERROR(ReadLine(in, "sit header", &line));
  if (line != "sit v1") {
    return Status::InvalidArgument("bad sit header: '" + line + "'");
  }
  // attribute <table> <column>
  SITSTATS_RETURN_IF_ERROR(ReadLine(in, "attribute line", &line));
  std::vector<std::string> attr = Split(line, ' ');
  if (attr.size() != 3 || attr[0] != "attribute") {
    return Status::InvalidArgument("bad attribute line: '" + line + "'");
  }
  ColumnRef attribute{attr[1], attr[2]};
  // tables <t1> <t2> ...
  SITSTATS_RETURN_IF_ERROR(ReadLine(in, "tables line", &line));
  std::vector<std::string> tables = Split(line, ' ');
  if (tables.size() < 2 || tables[0] != "tables") {
    return Status::InvalidArgument("bad tables line: '" + line + "'");
  }
  tables.erase(tables.begin());
  // joins <n> then n lines "join lt lc rt rc"
  SITSTATS_RETURN_IF_ERROR(ReadLine(in, "joins line", &line));
  std::vector<std::string> joins_header = Split(line, ' ');
  if (joins_header.size() != 2 || joins_header[0] != "joins") {
    return Status::InvalidArgument("bad joins line: '" + line + "'");
  }
  SITSTATS_ASSIGN_OR_RETURN(double joins_n,
                            ParseDouble(joins_header[1], "join count"));
  std::vector<JoinPredicate> joins;
  for (size_t i = 0; i < static_cast<size_t>(joins_n); ++i) {
    SITSTATS_RETURN_IF_ERROR(ReadLine(in, "join line", &line));
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() != 5 || fields[0] != "join") {
      return Status::InvalidArgument("bad join line: '" + line + "'");
    }
    joins.push_back(JoinPredicate{ColumnRef{fields[1], fields[2]},
                                  ColumnRef{fields[3], fields[4]}});
  }
  // variant <name>
  SITSTATS_RETURN_IF_ERROR(ReadLine(in, "variant line", &line));
  std::vector<std::string> variant_fields = Split(line, ' ');
  if (variant_fields.size() != 2 || variant_fields[0] != "variant") {
    return Status::InvalidArgument("bad variant line: '" + line + "'");
  }
  SITSTATS_ASSIGN_OR_RETURN(SweepVariant variant,
                            SweepVariantFromString(variant_fields[1]));
  // cardinality <x>
  SITSTATS_RETURN_IF_ERROR(ReadLine(in, "cardinality line", &line));
  std::vector<std::string> card_fields = Split(line, ' ');
  if (card_fields.size() != 2 || card_fields[0] != "cardinality") {
    return Status::InvalidArgument("bad cardinality line: '" + line + "'");
  }
  SITSTATS_ASSIGN_OR_RETURN(double cardinality,
                            ParseDouble(card_fields[1], "cardinality"));

  SITSTATS_ASSIGN_OR_RETURN(GeneratingQuery query,
                            GeneratingQuery::Create(std::move(tables),
                                                    std::move(joins)));
  SITSTATS_ASSIGN_OR_RETURN(Histogram histogram, ParseHistogramBody(in));
  return Sit{SitDescriptor(std::move(attribute), std::move(query)),
             std::move(histogram), variant, cardinality, IoStats{}};
}

void SerializeSitBody(const Sit& sit, std::string* out) {
  out->append("sit v1\n");
  const SitDescriptor& desc = sit.descriptor;
  out->append("attribute " + desc.attribute().table + " " +
              desc.attribute().column + "\n");
  out->append("tables " + Join(desc.query().tables(), " ") + "\n");
  out->append("joins " + std::to_string(desc.query().num_joins()) + "\n");
  for (const JoinPredicate& join : desc.query().joins()) {
    out->append("join " + join.left.table + " " + join.left.column + " " +
                join.right.table + " " + join.right.column + "\n");
  }
  out->append(std::string("variant ") + SweepVariantToString(sit.variant) +
              "\n");
  out->append("cardinality " + FormatExact(sit.estimated_cardinality) +
              "\n");
  SerializeHistogramBody(sit.histogram, out);
}

}  // namespace

Result<SweepVariant> SweepVariantFromString(const std::string& name) {
  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepIndex,
        SweepVariant::kSweepFull, SweepVariant::kSweepExact,
        SweepVariant::kHistSit}) {
    if (name == SweepVariantToString(variant)) return variant;
  }
  return Status::InvalidArgument("unknown sweep variant '" + name + "'");
}

std::string SerializeHistogram(const Histogram& histogram) {
  std::string out;
  SerializeHistogramBody(histogram, &out);
  return out;
}

Result<Histogram> DeserializeHistogram(const std::string& text) {
  std::istringstream in(text);
  return ParseHistogramBody(&in);
}

std::string SerializeSit(const Sit& sit) {
  std::string out;
  SerializeSitBody(sit, &out);
  return out;
}

Result<Sit> DeserializeSit(const std::string& text) {
  std::istringstream in(text);
  return ParseSitBody(&in);
}

std::string SerializeSitCatalog(const SitCatalog& catalog) {
  std::string out = "sitcatalog " + std::to_string(catalog.size()) + "\n";
  for (const Sit& sit : catalog.sits()) {
    SerializeSitBody(sit, &out);
  }
  return out;
}

Result<SitCatalog> DeserializeSitCatalog(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  SITSTATS_RETURN_IF_ERROR(ReadLine(&in, "catalog header", &line));
  std::vector<std::string> header = Split(line, ' ');
  if (header.size() != 2 || header[0] != "sitcatalog") {
    return Status::InvalidArgument("bad catalog header: '" + line + "'");
  }
  SITSTATS_ASSIGN_OR_RETURN(double n, ParseDouble(header[1], "sit count"));
  SitCatalog catalog;
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    SITSTATS_ASSIGN_OR_RETURN(Sit sit, ParseSitBody(&in));
    catalog.Add(std::move(sit));
  }
  return catalog;
}

Status SaveSitCatalog(const SitCatalog& catalog, const std::string& path) {
  SITSTATS_FAULT_SITE("sit.serialize.save");
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out << SerializeSitCatalog(catalog);
  out.flush();
  if (!out) {
    return Status::IOError("write to " + path + " failed");
  }
  return Status::OK();
}

Result<SitCatalog> LoadSitCatalog(const std::string& path) {
  SITSTATS_FAULT_SITE("sit.serialize.load");
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open " + path + " for reading");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return DeserializeSitCatalog(contents.str());
}

}  // namespace sitstats
