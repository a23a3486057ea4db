#include "market/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/telemetry.h"
#include "market/journal.h"

namespace nimbus::market {
namespace {

// Audit counters mirrored into the telemetry registry on every Record,
// so benches and the metrics snapshot report sales and revenue without
// re-walking the ledger — labeled per offering (the entry's model kind),
// matching the broker's per-offering families. Per-price-point sales are
// one family labeled by the formatted inverse-NCP: buyers may ask for
// any version in range, so the family's series bound (kMaxSeries, then
// `__other__`) is what keeps the registry finite.
telemetry::CounterVec& LedgerSalesVec() {
  static telemetry::CounterVec& vec =
      telemetry::Registry::Global().GetCounterVec("ledger_sales_total",
                                                  "offering");
  return vec;
}

telemetry::GaugeVec& LedgerRevenueVec() {
  static telemetry::GaugeVec& vec =
      telemetry::Registry::Global().GetGaugeVec("ledger_revenue_total",
                                                "offering");
  return vec;
}

telemetry::CounterVec& LedgerPointSalesVec() {
  static telemetry::CounterVec& vec =
      telemetry::Registry::Global().GetCounterVec("ledger_point_sales_total",
                                                  "inverse_ncp");
  return vec;
}

std::string PricePointLabel(double inverse_ncp) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", inverse_ncp);
  return buf;
}

// RFC-4180 field quoting: fields containing the separator, quotes or
// line breaks are wrapped in quotes with embedded quotes doubled, so a
// buyer id like `mallory",,"0` cannot inject audit columns.
std::string CsvField(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) {
    return field;
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

// Splits RFC-4180 text into rows of fields, honoring quoted fields
// (which may contain commas, doubled quotes, and line breaks).
StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;
  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };
  while (i < text.size()) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    switch (c) {
      case '"':
        if (field_started || !field.empty()) {
          return InvalidArgumentError(
              "CSV quote opened mid-field at byte " + std::to_string(i));
        }
        in_quotes = true;
        field_started = true;
        ++i;
        break;
      case ',':
        end_field();
        ++i;
        break;
      case '\r':
        if (i + 1 < text.size() && text[i + 1] == '\n') {
          ++i;
        }
        end_row();
        ++i;
        break;
      case '\n':
        end_row();
        ++i;
        break;
      default:
        field += c;
        field_started = true;
        ++i;
    }
  }
  if (in_quotes) {
    return InvalidArgumentError("CSV ends inside a quoted field");
  }
  if (field_started || !field.empty() || !row.empty()) {
    end_row();
  }
  return rows;
}

StatusOr<double> ParseDouble(const std::string& token, const char* what,
                             size_t row) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (errno != 0 || end == token.c_str() || *end != '\0') {
    return InvalidArgumentError("bad " + std::string(what) + " '" + token +
                                "' on CSV row " + std::to_string(row));
  }
  return value;
}

}  // namespace

Ledger::Ledger() = default;
Ledger::~Ledger() = default;
Ledger::Ledger(Ledger&&) noexcept = default;
Ledger& Ledger::operator=(Ledger&&) noexcept = default;

Status Ledger::ValidateFields(const std::string& buyer_id, double inverse_ncp,
                              double price, double expected_error) {
  if (buyer_id.empty()) {
    return InvalidArgumentError("buyer id must be non-empty");
  }
  if (!(inverse_ncp > 0.0) || !std::isfinite(inverse_ncp)) {
    return InvalidArgumentError("inverse NCP must be positive and finite");
  }
  if (price < 0.0 || !std::isfinite(price)) {
    return InvalidArgumentError("price must be non-negative and finite");
  }
  if (!std::isfinite(expected_error)) {
    return InvalidArgumentError("expected error must be finite");
  }
  return OkStatus();
}

void Ledger::Commit(const LedgerEntry& entry) {
  entries_.push_back(entry);
  ++next_sequence_;
  total_revenue_ += entry.price;
  spend_by_buyer_[entry.buyer_id] += entry.price;
  ++sales_per_price_point_[entry.inverse_ncp];
  revenue_by_model_[entry.model] += entry.price;
  ++sales_by_model_[entry.model];
  const std::string offering(ml::ModelKindToString(entry.model));
  LedgerSalesVec().WithLabel(offering).Increment();
  LedgerRevenueVec().WithLabel(offering).Add(entry.price);
  LedgerPointSalesVec()
      .WithLabel(PricePointLabel(entry.inverse_ncp))
      .Increment();
}

StatusOr<int64_t> Ledger::Record(const std::string& buyer_id,
                                 ml::ModelKind model, double inverse_ncp,
                                 double price, double expected_error,
                                 const telemetry::TraceContext* trace) {
  NIMBUS_RETURN_IF_ERROR(
      ValidateFields(buyer_id, inverse_ncp, price, expected_error));
  LedgerEntry entry;
  entry.sequence = next_sequence_;
  entry.buyer_id = buyer_id;
  entry.model = model;
  entry.inverse_ncp = inverse_ncp;
  entry.price = price;
  entry.expected_error = expected_error;
  // Durability first: the sale is acknowledged only after the journal
  // accepts it, so a crashed process never has acknowledged sales
  // missing from the WAL and a failed append never half-records.
  if (journal_ != nullptr) {
    NIMBUS_RETURN_IF_ERROR(journal_->Append(entry, trace));
  }
  Commit(entry);
  return entry.sequence;
}

Status Ledger::AttachJournal(std::unique_ptr<Journal> journal) {
  if (journal == nullptr) {
    return InvalidArgumentError("cannot attach a null journal");
  }
  journal_ = std::move(journal);
  return OkStatus();
}

std::unique_ptr<Journal> Ledger::DetachJournal() {
  return std::move(journal_);
}

Status Ledger::FlushJournal() {
  return journal_ == nullptr ? OkStatus() : journal_->Flush();
}

StatusOr<Ledger> Ledger::FromEntries(const std::vector<LedgerEntry>& entries) {
  Ledger ledger;
  for (const LedgerEntry& entry : entries) {
    if (entry.sequence != ledger.size()) {
      return FailedPreconditionError(
          "journal sequence gap: expected " + std::to_string(ledger.size()) +
          ", found " + std::to_string(entry.sequence));
    }
    NIMBUS_RETURN_IF_ERROR(ValidateFields(entry.buyer_id, entry.inverse_ncp,
                                          entry.price, entry.expected_error));
    ledger.Commit(entry);
  }
  return ledger;
}

StatusOr<Ledger> Ledger::FromRecoveredState(
    int64_t count, double total_revenue,
    std::map<std::string, double> spend_by_buyer,
    std::map<double, int64_t> sales_per_price_point,
    std::map<ml::ModelKind, double> revenue_by_model,
    std::map<ml::ModelKind, int64_t> sales_by_model, EntryLoader loader) {
  if (count < 0) {
    return InvalidArgumentError("recovered entry count must be >= 0");
  }
  if (count > 0 && loader == nullptr) {
    return InvalidArgumentError(
        "a recovered ledger covering entries needs an entry loader");
  }
  Ledger ledger;
  ledger.next_sequence_ = count;
  ledger.entries_base_ = count;
  ledger.base_loader_ = count > 0 ? std::move(loader) : nullptr;
  ledger.total_revenue_ = total_revenue;
  ledger.spend_by_buyer_ = std::move(spend_by_buyer);
  ledger.sales_per_price_point_ = std::move(sales_per_price_point);
  ledger.revenue_by_model_ = std::move(revenue_by_model);
  ledger.sales_by_model_ = std::move(sales_by_model);
  // Bulk-mirror the audit telemetry the per-commit path would have
  // produced, so scraped totals survive the restart.
  for (const auto& [model, sales] : ledger.sales_by_model_) {
    LedgerSalesVec()
        .WithLabel(std::string(ml::ModelKindToString(model)))
        .Increment(sales);
  }
  for (const auto& [model, revenue] : ledger.revenue_by_model_) {
    LedgerRevenueVec()
        .WithLabel(std::string(ml::ModelKindToString(model)))
        .Add(revenue);
  }
  for (const auto& [inverse_ncp, sales] : ledger.sales_per_price_point_) {
    LedgerPointSalesVec()
        .WithLabel(PricePointLabel(inverse_ncp))
        .Increment(sales);
  }
  return ledger;
}

Status Ledger::ApplyRecovered(const LedgerEntry& entry) {
  if (entry.sequence != next_sequence_) {
    return FailedPreconditionError(
        "journal sequence gap: expected " + std::to_string(next_sequence_) +
        ", found " + std::to_string(entry.sequence));
  }
  NIMBUS_RETURN_IF_ERROR(ValidateFields(entry.buyer_id, entry.inverse_ncp,
                                        entry.price, entry.expected_error));
  Commit(entry);
  return OkStatus();
}

Status Ledger::Hydrate() {
  if (entries_base_ == 0) {
    return OkStatus();
  }
  NIMBUS_ASSIGN_OR_RETURN(std::vector<LedgerEntry> base, base_loader_());
  if (static_cast<int64_t>(base.size()) != entries_base_) {
    return InternalError("hydration loader returned " +
                         std::to_string(base.size()) + " entries, want " +
                         std::to_string(entries_base_));
  }
  for (size_t i = 0; i < base.size(); ++i) {
    if (base[i].sequence != static_cast<int64_t>(i)) {
      return InternalError("hydration loader entry " + std::to_string(i) +
                           " carries sequence " +
                           std::to_string(base[i].sequence));
    }
    NIMBUS_RETURN_IF_ERROR(ValidateFields(base[i].buyer_id,
                                          base[i].inverse_ncp, base[i].price,
                                          base[i].expected_error));
  }
  base.insert(base.end(), std::make_move_iterator(entries_.begin()),
              std::make_move_iterator(entries_.end()));
  entries_ = std::move(base);
  entries_base_ = 0;
  base_loader_ = nullptr;
  return OkStatus();
}

const std::vector<LedgerEntry>& Ledger::entries() const {
  NIMBUS_CHECK(hydrated())
      << "ledger entry rows accessed before Hydrate() on a "
         "hydration-deferred restore";
  return entries_;
}

std::map<double, int64_t> Ledger::SalesPerPricePoint() const {
  return sales_per_price_point_;
}

double Ledger::TotalRevenue() const { return total_revenue_; }

double Ledger::RevenueForModel(ml::ModelKind model) const {
  const auto it = revenue_by_model_.find(model);
  return it == revenue_by_model_.end() ? 0.0 : it->second;
}

std::vector<std::pair<std::string, double>> Ledger::TopBuyers(
    int limit) const {
  std::vector<std::pair<std::string, double>> buyers(spend_by_buyer_.begin(),
                                                     spend_by_buyer_.end());
  std::sort(buyers.begin(), buyers.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) {
                return a.second > b.second;
              }
              return a.first < b.first;
            });
  if (limit >= 0 && static_cast<size_t>(limit) < buyers.size()) {
    buyers.resize(static_cast<size_t>(limit));
  }
  return buyers;
}

std::vector<LedgerEntry> Ledger::EntriesForBuyer(
    const std::string& buyer_id) const {
  std::vector<LedgerEntry> out;
  for (const LedgerEntry& e : entries()) {
    if (e.buyer_id == buyer_id) {
      out.push_back(e);
    }
  }
  return out;
}

std::string Ledger::ToCsv() const {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "sequence,buyer,model,inverse_ncp,price,expected_error\n";
  for (const LedgerEntry& e : entries()) {
    out << e.sequence << ',' << CsvField(e.buyer_id) << ','
        << ml::ModelKindToString(e.model) << ',' << e.inverse_ncp << ','
        << e.price << ',' << e.expected_error << '\n';
  }
  return out.str();
}

StatusOr<Ledger> Ledger::FromCsv(const std::string& text) {
  NIMBUS_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                          ParseCsv(text));
  if (rows.empty() || rows.front().size() != 6 ||
      rows.front().front() != "sequence") {
    return InvalidArgumentError("missing ledger CSV header");
  }
  std::vector<LedgerEntry> entries;
  for (size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    if (row.size() != 6) {
      return InvalidArgumentError("ledger CSV row " + std::to_string(r) +
                                  " has " + std::to_string(row.size()) +
                                  " fields, want 6");
    }
    LedgerEntry entry;
    NIMBUS_ASSIGN_OR_RETURN(const double sequence,
                            ParseDouble(row[0], "sequence", r));
    entry.sequence = static_cast<int64_t>(sequence);
    entry.buyer_id = row[1];
    NIMBUS_ASSIGN_OR_RETURN(entry.model, ml::ModelKindFromString(row[2]));
    NIMBUS_ASSIGN_OR_RETURN(entry.inverse_ncp,
                            ParseDouble(row[3], "inverse_ncp", r));
    NIMBUS_ASSIGN_OR_RETURN(entry.price, ParseDouble(row[4], "price", r));
    NIMBUS_ASSIGN_OR_RETURN(entry.expected_error,
                            ParseDouble(row[5], "expected_error", r));
    entries.push_back(std::move(entry));
  }
  return FromEntries(entries);
}

}  // namespace nimbus::market
