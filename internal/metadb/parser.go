package metadb

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement (a trailing semicolon is
// allowed). Each '?' outside a string literal becomes a Param, numbered
// left to right.
func Parse(src string) (Statement, error) {
	st, _, err := parse(src)
	return st, err
}

// parse is Parse that also reports how many placeholders it numbered.
func parse(src string) (Statement, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, 0, fmt.Errorf("metadb: trailing input after statement: %s", p.peek())
	}
	return st, p.nparams, nil
}

type parser struct {
	toks    []token
	i       int
	nparams int // placeholders numbered so far
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		switch kind {
		case tokIdent:
			want = "identifier"
		case tokInt:
			want = "integer"
		default:
			want = "token"
		}
	}
	return token{}, fmt.Errorf("metadb: expected %s, found %s", want, p.peek())
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("metadb: expected statement, found %s", t)
	}
	switch t.text {
	case "CREATE":
		if p.toks[p.i+1].text == "INDEX" {
			return p.createIndex()
		}
		return p.createTable()
	case "DROP":
		if p.toks[p.i+1].text == "INDEX" {
			return p.dropIndex()
		}
		return p.dropTable()
	case "INSERT":
		return p.insert()
	case "SELECT":
		return p.selectStmt()
	case "EXPLAIN":
		p.next()
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		sel, ok := inner.(Select)
		if !ok {
			return nil, fmt.Errorf("metadb: EXPLAIN supports only SELECT")
		}
		return Explain{Stmt: sel}, nil
	case "UPDATE":
		return p.update()
	case "DELETE":
		return p.deleteStmt()
	case "BEGIN":
		p.next()
		p.accept(tokKeyword, "TRANSACTION")
		return Begin{}, nil
	case "COMMIT":
		p.next()
		return Commit{}, nil
	case "ROLLBACK":
		p.next()
		return Rollback{}, nil
	}
	return nil, fmt.Errorf("metadb: unsupported statement %s", t)
}

func (p *parser) createTable() (Statement, error) {
	p.next() // CREATE
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := CreateTable{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col := ColumnDef{}
		col.Name, err = p.ident()
		if err != nil {
			return nil, err
		}
		tname, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("metadb: column %s needs a type: %w", col.Name, err)
		}
		col.Type, err = ParseType(tname)
		if err != nil {
			return nil, err
		}
		// Optional length like VARCHAR(64): parsed and ignored.
		if p.accept(tokSymbol, "(") {
			if _, err := p.expect(tokInt, ""); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		for {
			switch {
			case p.accept(tokKeyword, "PRIMARY"):
				if _, err := p.expect(tokKeyword, "KEY"); err != nil {
					return nil, err
				}
				col.PrimaryKey = true
				col.NotNull = true
			case p.accept(tokKeyword, "NOT"):
				if _, err := p.expect(tokKeyword, "NULL"); err != nil {
					return nil, err
				}
				col.NotNull = true
			case p.accept(tokKeyword, "UNIQUE"):
				col.Unique = true
			default:
				goto colDone
			}
		}
	colDone:
		st.Cols = append(st.Cols, col)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) dropTable() (Statement, error) {
	p.next() // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := DropTable{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *parser) createIndex() (Statement, error) {
	p.next() // CREATE
	p.next() // INDEX
	st := CreateIndex{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	st.Table, err = p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	st.Col, err = p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) dropIndex() (Statement, error) {
	p.next() // DROP
	p.next() // INDEX
	st := DropIndex{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	st.Table, err = p.ident()
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) insert() (Statement, error) {
	p.next() // INSERT
	st := Insert{}
	if p.accept(tokKeyword, "OR") {
		if t := p.next(); !strings.EqualFold(t.text, "IGNORE") {
			return nil, fmt.Errorf("metadb: expected IGNORE, found %s", t)
		}
		st.OrIgnore = true
	}
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.accept(tokSymbol, "(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) selectStmt() (Statement, error) {
	p.next() // SELECT
	st := Select{}
	if p.accept(tokKeyword, "DISTINCT") {
		st.Distinct = true
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	st.Alias = p.maybeAlias()
	for {
		if p.accept(tokKeyword, "INNER") {
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		} else if !p.accept(tokKeyword, "JOIN") {
			break
		}
		var j Join
		j.Table, err = p.ident()
		if err != nil {
			return nil, err
		}
		j.Alias = p.maybeAlias()
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		j.On, err = p.expr()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, j)
	}
	if p.accept(tokKeyword, "WHERE") {
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		st.Having, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				key.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, key)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokInt, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		st.Limit = &n
	}
	return st, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: e, Alias: p.maybeAlias()}, nil
}

func (p *parser) maybeAlias() string {
	if p.accept(tokKeyword, "AS") {
		if p.at(tokIdent, "") {
			return p.next().text
		}
	}
	if p.at(tokIdent, "") {
		return p.next().text
	}
	return ""
}

func (p *parser) update() (Statement, error) {
	p.next() // UPDATE
	st := Update{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		st.Exprs = append(st.Exprs, e)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	st := Delete{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.accept(tokKeyword, "WHERE") {
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// --- expression parsing (precedence climbing) ------------------------

// expr parses OR-level expressions.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "NOT", X: x}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept(tokKeyword, "IS") {
		not := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return IsNull{X: l, Not: not}, nil
	}
	// [NOT] IN / [NOT] LIKE
	not := false
	if p.at(tokKeyword, "NOT") && (p.toks[p.i+1].text == "IN" || p.toks[p.i+1].text == "LIKE") {
		p.next()
		not = true
	}
	if p.accept(tokKeyword, "IN") {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return InList{X: l, Not: not, List: list}, nil
	}
	if p.accept(tokKeyword, "LIKE") {
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		var e Expr = Binary{Op: "LIKE", L: l, R: r}
		if not {
			e = Unary{Op: "NOT", X: e}
		}
		return e, nil
	}
	if not {
		return nil, fmt.Errorf("metadb: dangling NOT near %s", p.peek())
	}
	for _, op := range []string{"=", "!=", "<>", "<=", ">=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "+"):
			op = "+"
		case p.accept(tokSymbol, "-"):
			op = "-"
		case p.accept(tokSymbol, "||"):
			op = "||"
		default:
			return l, nil
		}
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "*"):
			op = "*"
		case p.accept(tokSymbol, "/"):
			op = "/"
		case p.accept(tokSymbol, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		// A negative number is a literal like any other: it probes an
		// index exactly as the same value bound to a placeholder does.
		if l, ok := x.(Lit); ok {
			switch l.V.Kind {
			case KindInt:
				return Lit{I(-l.V.Int)}, nil
			case KindFloat:
				return Lit{F(-l.V.Float)}, nil
			}
		}
		return Unary{Op: "-", X: x}, nil
	}
	if p.accept(tokSymbol, "+") {
		return p.unaryExpr()
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metadb: bad integer literal %q", t.text)
		}
		return Lit{I(v)}, nil
	case tokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("metadb: bad float literal %q", t.text)
		}
		return Lit{F(v)}, nil
	case tokString:
		p.next()
		return Lit{S(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return Lit{Null()}, nil
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
			p.next()
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			agg := AggExpr{Fn: t.text}
			if t.text == "COUNT" && p.accept(tokSymbol, "*") {
				agg.Star = true
			} else {
				x, err := p.expr()
				if err != nil {
					return nil, err
				}
				agg.X = x
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return agg, nil
		}
	case tokIdent:
		p.next()
		// Function call?
		if p.accept(tokSymbol, "(") {
			fn := strings.ToUpper(t.text)
			var args []Expr
			if !p.at(tokSymbol, ")") {
				for {
					e, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, e)
					if p.accept(tokSymbol, ",") {
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return Call{Name: fn, Args: args}, nil
		}
		// Optional table qualifier t.col.
		if p.accept(tokSymbol, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return Col{Qual: t.text, Name: col}, nil
		}
		return Col{Name: t.text}, nil
	case tokSymbol:
		if t.text == "?" {
			p.next()
			p.nparams++
			return Param{N: p.nparams - 1}, nil
		}
		if t.text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("metadb: unexpected %s in expression", t)
}
