// Copyright 2026 The claks Authors.

#include "core/association.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace claks {

std::string ConnectionAnalysis::Describe(const Database& db) const {
  std::string out = connection.ToAnnotatedString(db);
  out += StrFormat(" | rdb %zu, er %zu | %s", rdb_length, er_length,
                   AssociationKindToString(kind));
  out += schema_close ? " (close)" : " (loose)";
  if (instance_close.has_value()) {
    out += *instance_close ? " [instance-close]" : " [instance-loose]";
  }
  return out;
}

AssociationAnalyzer::AssociationAnalyzer(const Database* db,
                                         const ERSchema* er_schema,
                                         const ErRelationalMapping* mapping,
                                         const DataGraph* graph)
    : db_(db), er_schema_(er_schema), mapping_(mapping), graph_(graph) {
  CLAKS_CHECK(db_ != nullptr);
  CLAKS_CHECK(er_schema_ != nullptr);
  CLAKS_CHECK(mapping_ != nullptr);
  CLAKS_CHECK(graph_ != nullptr);
}

Result<ConnectionAnalysis> AssociationAnalyzer::Analyze(
    const Connection& connection) const {
  ConnectionAnalysis out;
  out.connection = connection;
  CLAKS_ASSIGN_OR_RETURN(
      out.projection, ProjectToEr(connection, *db_, *er_schema_, *mapping_));
  out.rdb_steps = connection.RdbCardinalitySequence();
  out.er_steps = out.projection.CardinalitySequence();
  out.rdb_length = connection.RdbLength();
  out.er_length = out.projection.ErLength();
  if (out.er_steps.empty()) {
    // A single tuple matching several keywords: trivially close.
    out.kind = AssociationKind::kImmediate;
    out.endpoint = Cardinality::kOneOne;
  } else {
    out.kind = ClassifyCardinalitySequence(out.er_steps);
    out.endpoint = ComposeCardinality(out.er_steps);
    out.nm_steps = CountNMSteps(out.er_steps);
    out.hub_patterns = CountHubPatterns(out.er_steps);
  }
  out.schema_close = GuaranteesCloseAssociation(out.kind);
  return out;
}

Result<bool> AssociationAnalyzer::HasCloseWitness(TupleId a, TupleId b,
                                                  size_t max_edges) const {
  uint32_t na = graph_->NodeOf(a);
  uint32_t nb = graph_->NodeOf(b);
  auto paths = EnumerateSimplePaths(*graph_, na, nb, max_edges);
  for (const NodePath& path : paths) {
    Connection candidate = Connection::FromNodePath(*graph_, path);
    CLAKS_ASSIGN_OR_RETURN(
        ErProjection projection,
        ProjectToEr(candidate, *db_, *er_schema_, *mapping_));
    auto steps = projection.CardinalitySequence();
    if (steps.empty()) return true;  // same tuple
    if (GuaranteesCloseAssociation(ClassifyCardinalitySequence(steps))) {
      return true;
    }
  }
  return false;
}

Result<bool> AssociationAnalyzer::IsInstanceClose(
    const Connection& connection, size_t max_witness_edges) const {
  CLAKS_ASSIGN_OR_RETURN(ConnectionAnalysis analysis, Analyze(connection));
  return IsInstanceClose(analysis, max_witness_edges);
}

Result<bool> AssociationAnalyzer::IsInstanceClose(
    const ConnectionAnalysis& analysis, size_t max_witness_edges) const {
  if (analysis.schema_close) return true;
  const Connection& connection = analysis.connection;
  size_t budget =
      max_witness_edges == 0 ? connection.RdbLength() : max_witness_edges;
  return HasCloseWitness(connection.front(), connection.back(), budget);
}

Result<bool> AssociationAnalyzer::IsInstanceCloseStrict(
    const Connection& connection, size_t max_witness_edges) const {
  CLAKS_ASSIGN_OR_RETURN(ConnectionAnalysis analysis, Analyze(connection));
  if (analysis.schema_close) return true;
  size_t budget =
      max_witness_edges == 0 ? connection.RdbLength() : max_witness_edges;

  // Examine every pair of entity tuples whose connecting sub-sequence of ER
  // steps is loose.
  const auto& entity_tuples = analysis.projection.entity_tuples;
  const auto& steps = analysis.er_steps;
  for (size_t i = 0; i < entity_tuples.size(); ++i) {
    for (size_t j = i + 1; j < entity_tuples.size(); ++j) {
      // ER steps between entity tuple i and j are steps [i, j). This holds
      // because entity_tuples has one entry per step boundary (partial
      // steps at the ends excluded below).
      if (j - i > steps.size()) continue;
      if (entity_tuples.size() != steps.size() + 1) {
        // Partial steps present (connection endpoint inside a middle
        // relation); fall back to endpoint semantics.
        return IsInstanceClose(analysis, max_witness_edges);
      }
      std::vector<Cardinality> sub(steps.begin() + i, steps.begin() + j);
      if (GuaranteesCloseAssociation(ClassifyCardinalitySequence(sub))) {
        continue;
      }
      CLAKS_ASSIGN_OR_RETURN(
          bool witness,
          HasCloseWitness(entity_tuples[i], entity_tuples[j], budget));
      if (!witness) return false;
    }
  }
  return true;
}

Result<ConnectionAnalysis> AssociationAnalyzer::AnalyzeWithInstanceCheck(
    const Connection& connection, size_t max_witness_edges) const {
  CLAKS_ASSIGN_OR_RETURN(ConnectionAnalysis analysis, Analyze(connection));
  CLAKS_ASSIGN_OR_RETURN(bool instance_close,
                         IsInstanceClose(analysis, max_witness_edges));
  analysis.instance_close = instance_close;
  return analysis;
}

}  // namespace claks
