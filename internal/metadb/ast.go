package metadb

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Stmt is one element of a Batch: a statement text and the arguments
// for its '?' placeholders.
type Stmt struct {
	SQL  string
	Args []Value
}

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       Kind
	PrimaryKey bool
	NotNull    bool
	Unique     bool
}

// CreateTable is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTable struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

// Insert is INSERT [OR IGNORE] INTO name [(cols)] VALUES (...), (...).
// With OR IGNORE a row that collides with an existing primary-key or
// UNIQUE value is skipped instead of failing the statement.
type Insert struct {
	Table    string
	OrIgnore bool
	Cols     []string // nil = all columns in schema order
	Rows     [][]Expr
}

// Select is SELECT items FROM table [JOIN ...] [WHERE] [GROUP BY]
// [HAVING] [ORDER BY] [LIMIT].
type Select struct {
	Distinct bool
	Items    []SelectItem
	Table    string
	Alias    string
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderKey
	Limit    *int64
}

// Join is one INNER JOIN clause.
type Join struct {
	Table string
	Alias string
	On    Expr
}

// CreateIndex is CREATE INDEX [IF NOT EXISTS] name ON table (col).
type CreateIndex struct {
	Name        string
	Table       string
	Col         string
	IfNotExists bool
}

// DropIndex is DROP INDEX [IF EXISTS] name ON table.
type DropIndex struct {
	Name     string
	Table    string
	IfExists bool
}

// SelectItem is one output column: either a star or an expression
// (which may contain aggregates) with an optional alias.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Update is UPDATE t SET col=expr,... [WHERE].
type Update struct {
	Table string
	Cols  []string
	Exprs []Expr
	Where Expr
}

// Delete is DELETE FROM t [WHERE].
type Delete struct {
	Table string
	Where Expr
}

// Begin, Commit and Rollback control transactions.
type Begin struct{}
type Commit struct{}
type Rollback struct{}

func (CreateTable) stmt() {}
func (DropTable) stmt()   {}
func (CreateIndex) stmt() {}
func (DropIndex) stmt()   {}
func (Insert) stmt()      {}
func (Select) stmt()      {}
func (Update) stmt()      {}
func (Delete) stmt()      {}
func (Begin) stmt()       {}
func (Commit) stmt()      {}
func (Rollback) stmt()    {}

// Expr is a SQL expression node.
type Expr interface{ expr() }

// Lit is a literal value.
type Lit struct{ V Value }

// Param is a '?' placeholder: the N-th (0-based, left to right) of the
// arguments the statement is executed with. Wherever the executor
// special-cases a literal (index probes), a bound parameter counts as
// one.
type Param struct{ N int }

// Col is a column reference, optionally qualified with a table name or
// alias ("t.col").
type Col struct {
	Qual string
	Name string
}

// Unary is -x or NOT x.
type Unary struct {
	Op string // "-", "NOT"
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	Op   string // + - * / % = != < <= > >= AND OR LIKE ||
	L, R Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// InList is x [NOT] IN (v1, v2, ...).
type InList struct {
	X    Expr
	Not  bool
	List []Expr
}

// Call is a scalar function call (LENGTH, UPPER, LOWER, ABS, ...).
type Call struct {
	Name string
	Args []Expr
}

// AggExpr is an aggregate function application: COUNT(*), COUNT(x),
// SUM(x), MIN(x), MAX(x), AVG(x). Aggregates are legal in SELECT items
// and HAVING clauses.
type AggExpr struct {
	Fn   string // COUNT, SUM, MIN, MAX, AVG
	Star bool   // COUNT(*)
	X    Expr
}

func (Lit) expr()     {}
func (Param) expr()   {}
func (Col) expr()     {}
func (Unary) expr()   {}
func (Binary) expr()  {}
func (IsNull) expr()  {}
func (InList) expr()  {}
func (Call) expr()    {}
func (AggExpr) expr() {}
