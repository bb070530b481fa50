// Copyright 2026 The claks Authors.
//
// Close/loose association analysis of connections — the paper's central
// contribution. A connection is classified at the *schema (intensional)
// level* from its cardinality sequence (§2), and optionally verified at the
// *instance (extensional) level*: a schema-loose connection whose endpoint
// tuples are also joined by a schema-close connection is close in this
// particular database instance (§3, connections 3 and 4 vs connection 6).

#ifndef CLAKS_CORE_ASSOCIATION_H_
#define CLAKS_CORE_ASSOCIATION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/connection.h"
#include "core/length.h"
#include "er/transitive.h"

namespace claks {

/// Complete analysis of one connection.
struct ConnectionAnalysis {
  Connection connection;
  ErProjection projection;

  /// Cardinalities at the RDB level (one per FK edge).
  std::vector<Cardinality> rdb_steps;
  /// Cardinalities at the conceptual level (one per ER step).
  std::vector<Cardinality> er_steps;

  size_t rdb_length = 0;
  size_t er_length = 0;

  /// Classification of the ER step sequence (paper §2).
  AssociationKind kind = AssociationKind::kImmediate;
  /// Endpoint-to-endpoint composition of the ER steps.
  Cardinality endpoint = Cardinality::kOneOne;
  size_t nm_steps = 0;
  size_t hub_patterns = 0;

  /// True when the cardinality sequence guarantees a close association.
  bool schema_close = true;
  /// Filled by AssociationAnalyzer::CheckInstanceClose; nullopt until then.
  std::optional<bool> instance_close;

  std::string Describe(const Database& db) const;
};

/// Analyzer bound to one database + conceptual schema. The referenced
/// objects must outlive the analyzer.
class AssociationAnalyzer {
 public:
  AssociationAnalyzer(const Database* db, const ERSchema* er_schema,
                      const ErRelationalMapping* mapping,
                      const DataGraph* graph);

  /// Schema-level analysis (no instance check).
  Result<ConnectionAnalysis> Analyze(const Connection& connection) const;

  /// Instance-level closeness: a schema-close connection is trivially
  /// instance-close; a schema-loose one is instance-close iff its endpoint
  /// tuples are also joined by some schema-close connection of at most
  /// `max_witness_edges` FK edges (0: use the connection's own RDB length).
  Result<bool> IsInstanceClose(const Connection& connection,
                               size_t max_witness_edges = 0) const;

  /// IsInstanceClose over an analysis Analyze already produced (of
  /// `analysis.connection`): the same verdict without classifying the
  /// connection a second time.
  Result<bool> IsInstanceClose(const ConnectionAnalysis& analysis,
                               size_t max_witness_edges = 0) const;

  /// Strict variant: every entity-tuple pair of the connection whose
  /// sub-path is schema-loose must have a close witness. Implies
  /// IsInstanceClose.
  Result<bool> IsInstanceCloseStrict(const Connection& connection,
                                     size_t max_witness_edges = 0) const;

  /// Analyze + fill instance_close.
  Result<ConnectionAnalysis> AnalyzeWithInstanceCheck(
      const Connection& connection, size_t max_witness_edges = 0) const;

  const Database& database() const { return *db_; }
  const ERSchema& er_schema() const { return *er_schema_; }
  const ErRelationalMapping& mapping() const { return *mapping_; }
  const DataGraph& graph() const { return *graph_; }

 private:
  /// True if tuples `a` and `b` are joined by a schema-close connection of
  /// at most `max_edges` FK edges.
  Result<bool> HasCloseWitness(TupleId a, TupleId b, size_t max_edges) const;

  const Database* db_;
  const ERSchema* er_schema_;
  const ErRelationalMapping* mapping_;
  const DataGraph* graph_;
};

}  // namespace claks

#endif  // CLAKS_CORE_ASSOCIATION_H_
