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
}

// CreateTable is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTable struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
}

// Insert is INSERT [OR IGNORE] INTO name [(cols)] VALUES (...), (...).
// With OR IGNORE a row that collides with an existing primary key is
// skipped instead of failing the statement.
type Insert struct {
	Table    string
	OrIgnore bool
	Cols     []string // nil = all columns in schema order
	Rows     [][]Expr
}

// Select is SELECT items FROM table [JOIN ...] [WHERE] [GROUP BY]
// [ORDER BY]. GROUP BY takes column references; ORDER BY, which sorts
// ascending, column references and 1-based output positions (integer
// literals).
type Select struct {
	Items   []SelectItem
	Table   string
	Alias   string
	Joins   []Join
	Where   Expr
	GroupBy []Expr
	OrderBy []Expr
}

// Join is one JOIN clause.
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

// SelectItem is one output column: either a star or an expression
// (which may contain aggregates).
type SelectItem struct {
	Star bool
	Expr Expr
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
func (CreateIndex) stmt() {}
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

// Binary is a binary operator application.
type Binary struct {
	Op   string // + * = AND
	L, R Expr
}

// AggExpr is an aggregate function application, COUNT(*) or SUM(x).
// Aggregates are legal in SELECT items.
type AggExpr struct {
	Fn string // COUNT, SUM
	X  Expr   // nil for COUNT(*)
}

func (Lit) expr()     {}
func (Param) expr()   {}
func (Col) expr()     {}
func (Binary) expr()  {}
func (AggExpr) expr() {}
