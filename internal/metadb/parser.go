package metadb

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement. Each '?' outside a string
// literal becomes a Param, numbered left to right.
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
	for p.accept(tokKeyword, "JOIN") {
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
		if st.GroupBy, err = p.byList(p.column); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if st.OrderBy, err = p.byList(p.column); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// byList parses "BY item, item, ...", the tail of GROUP and ORDER.
func (p *parser) byList(item func() (Expr, error)) ([]Expr, error) {
	if _, err := p.expect(tokKeyword, "BY"); err != nil {
		return nil, err
	}
	var list []Expr
	for {
		e, err := item()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(tokSymbol, ",") {
			return list, nil
		}
	}
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.expr()
	return SelectItem{Expr: e}, err
}

// maybeAlias parses the optional alias after a table name.
func (p *parser) maybeAlias() string {
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

// expr parses AND-level expressions.
func (p *parser) expr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(tokSymbol, "=") {
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return Binary{Op: "=", L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokSymbol, "+") {
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "+", L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokSymbol, "*") {
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "*", L: l, R: r}
	}
	return l, nil
}

// column parses a column reference, "col" or "table.col".
func (p *parser) column() (Expr, error) {
	name, err := p.ident()
	if err != nil || !p.accept(tokSymbol, ".") {
		return Col{Name: name}, err
	}
	col, err := p.ident()
	return Col{Qual: name, Name: col}, err
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		return intLit(t.text)
	case tokString:
		p.next()
		return Lit{S(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return Lit{Null()}, nil
		case "COUNT", "SUM":
			p.next()
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			agg := AggExpr{Fn: t.text}
			if t.text == "COUNT" {
				if _, err := p.expect(tokSymbol, "*"); err != nil {
					return nil, err
				}
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
		return p.column()
	case tokSymbol:
		switch t.text {
		case "?":
			p.next()
			p.nparams++
			return Param{N: p.nparams - 1}, nil
		case "-": // a negative integer literal; there is no subtraction
			p.next()
			n, err := p.expect(tokInt, "")
			if err != nil {
				return nil, err
			}
			return intLit("-" + n.text)
		case "(":
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

func intLit(text string) (Expr, error) {
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("metadb: bad integer literal %q", text)
	}
	return Lit{I(v)}, nil
}
