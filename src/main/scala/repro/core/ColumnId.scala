package repro.core

/** Fully-qualified identifier of a column in a (multi-database) corpus.
  *
  * `database` models the CDW database/schema a table lives in — WarpGate's
  * value proposition is surfacing join paths *across* databases, and the
  * Spider evaluation scopes search *within* each database, so the database
  * name must travel with the column identity.
  */
final case class ColumnId(database: String, table: String, column: String) {
  /** Dotted display name. Not an identity: names may themselves contain dots,
    * so compare and key by the ColumnId itself.
    */
  def key: String = s"$database.$table.$column"
  override def toString: String = key
}

object ColumnId {
  /** Orders by (database, table, column): the tie-break of every ranking. */
  implicit val ordering: Ordering[ColumnId] = Ordering.by(c => (c.database, c.table, c.column))
}

/** One ranked answer of a discovery query. */
final case class SearchResult(query: ColumnId, candidate: ColumnId, score: Double)
