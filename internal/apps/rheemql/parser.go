package rheemql

import (
	"fmt"
	"strconv"
	"strings"
)

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table  string // alias or table name; "" = unqualified
	Column string
}

// String renders the reference.
func (c ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// AggFunc names an aggregate function.
type AggFunc string

// The supported aggregates.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// SelectItem is one projection: a column, a star, or an aggregate.
type SelectItem struct {
	Star    bool
	Col     ColumnRef
	Agg     AggFunc   // "" for plain columns
	Arg     ColumnRef // aggregate argument; Star for COUNT(*)
	ArgStar bool
	Alias   string
}

// Literal is a constant in a comparison.
type Literal struct {
	IsString bool
	IsBool   bool
	Bool     bool
	Str      string
	Num      float64
	IsInt    bool
	Int      int64
}

// Comparison is one WHERE conjunct: Left op (column | literal).
type Comparison struct {
	Left     ColumnRef
	Op       string // =, !=, <, <=, >, >=
	RightCol *ColumnRef
	RightLit *Literal
}

// TableRef names a catalog table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// aliasOrName returns the effective alias.
func (t TableRef) aliasOrName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is an equi-join.
type JoinClause struct {
	Table    TableRef
	LeftCol  ColumnRef
	RightCol ColumnRef
}

// OrderItem is the ORDER BY clause.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

// Query is the parsed AST.
type Query struct {
	Select  []SelectItem
	From    TableRef
	Join    *JoinClause
	Where   []Comparison
	GroupBy []ColumnRef
	// Having filters aggregated rows; comparisons reference output
	// columns (aliases or derived aggregate names) and literals.
	Having  []Comparison
	OrderBy *OrderItem
	Limit   int // -1 = none
}

// Parse compiles query text to an AST.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("rheemql: trailing input at %q", p.cur().text)
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) eat(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, fmt.Errorf("rheemql: expected %q, found %q at %d", text, p.cur().text, p.cur().pos)
	}
	t := p.cur()
	p.i++
	return t, nil
}

func (p *parser) tryEat(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if _, err := p.eat(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if !p.tryEat(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.eat(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	q.From = from

	if p.tryEat(tokKeyword, "JOIN") {
		jt, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.eat(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		l, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.eat(tokSymbol, "="); err != nil {
			return nil, err
		}
		r, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		q.Join = &JoinClause{Table: jt, LeftCol: l, RightCol: r}
	}

	if p.tryEat(tokKeyword, "WHERE") {
		for {
			cmp, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, cmp)
			if !p.tryEat(tokKeyword, "AND") {
				break
			}
		}
	}

	if p.tryEat(tokKeyword, "GROUP") {
		if _, err := p.eat(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, col)
			if !p.tryEat(tokSymbol, ",") {
				break
			}
		}
	}

	if p.tryEat(tokKeyword, "HAVING") {
		if len(q.GroupBy) == 0 {
			hasAgg := false
			for _, it := range q.Select {
				if it.Agg != "" {
					hasAgg = true
				}
			}
			if !hasAgg {
				return nil, fmt.Errorf("rheemql: HAVING without GROUP BY or aggregates")
			}
		}
		for {
			cmp, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			if cmp.RightCol != nil {
				return nil, fmt.Errorf("rheemql: HAVING supports only literal comparisons")
			}
			q.Having = append(q.Having, cmp)
			if !p.tryEat(tokKeyword, "AND") {
				break
			}
		}
	}

	if p.tryEat(tokKeyword, "ORDER") {
		if _, err := p.eat(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		item := &OrderItem{Col: col}
		if p.tryEat(tokKeyword, "DESC") {
			item.Desc = true
		} else {
			p.tryEat(tokKeyword, "ASC")
		}
		q.OrderBy = item
	}

	if p.tryEat(tokKeyword, "LIMIT") {
		n, err := p.eat(tokNumber, "")
		if err != nil {
			return nil, err
		}
		limit, err := strconv.Atoi(n.text)
		if err != nil || limit < 0 {
			return nil, fmt.Errorf("rheemql: bad LIMIT %q", n.text)
		}
		q.Limit = limit
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.tryEat(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// Aggregate?
	if t := p.cur(); t.kind == tokKeyword {
		switch AggFunc(t.text) {
		case AggCount, AggSum, AggAvg, AggMin, AggMax:
			agg := AggFunc(t.text)
			p.i++
			if _, err := p.eat(tokSymbol, "("); err != nil {
				return SelectItem{}, err
			}
			item := SelectItem{Agg: agg}
			if p.tryEat(tokSymbol, "*") {
				if agg != AggCount {
					return SelectItem{}, fmt.Errorf("rheemql: %s(*) is not valid", agg)
				}
				item.ArgStar = true
			} else {
				arg, err := p.parseColumnRef()
				if err != nil {
					return SelectItem{}, err
				}
				item.Arg = arg
			}
			if _, err := p.eat(tokSymbol, ")"); err != nil {
				return SelectItem{}, err
			}
			if p.tryEat(tokKeyword, "AS") {
				a, err := p.eat(tokIdent, "")
				if err != nil {
					return SelectItem{}, err
				}
				item.Alias = a.text
			}
			return item, nil
		}
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Col: col}
	if p.tryEat(tokKeyword, "AS") {
		a, err := p.eat(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.eat(tokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name.text}
	if p.at(tokIdent, "") {
		alias := p.cur()
		p.i++
		ref.Alias = alias.text
	}
	return ref, nil
}

func (p *parser) parseColumnRef() (ColumnRef, error) {
	first, err := p.eat(tokIdent, "")
	if err != nil {
		return ColumnRef{}, err
	}
	if p.tryEat(tokSymbol, ".") {
		col, err := p.eat(tokIdent, "")
		if err != nil {
			return ColumnRef{}, err
		}
		return ColumnRef{Table: first.text, Column: col.text}, nil
	}
	return ColumnRef{Column: first.text}, nil
}

func (p *parser) parseComparison() (Comparison, error) {
	left, err := p.parseColumnRef()
	if err != nil {
		return Comparison{}, err
	}
	op := p.cur()
	switch op.text {
	case "=", "!=", "<", "<=", ">", ">=":
		p.i++
	default:
		return Comparison{}, fmt.Errorf("rheemql: expected comparison operator, found %q at %d", op.text, op.pos)
	}
	cmp := Comparison{Left: left, Op: op.text}
	t := p.cur()
	switch t.kind {
	case tokIdent:
		rc, err := p.parseColumnRef()
		if err != nil {
			return Comparison{}, err
		}
		cmp.RightCol = &rc
	case tokNumber:
		p.i++
		lit, err := numberLiteral(t.text)
		if err != nil {
			return Comparison{}, err
		}
		cmp.RightLit = lit
	case tokString:
		p.i++
		cmp.RightLit = &Literal{IsString: true, Str: t.text}
	case tokKeyword:
		if t.text == "TRUE" || t.text == "FALSE" {
			p.i++
			cmp.RightLit = &Literal{IsBool: true, Bool: t.text == "TRUE"}
		} else {
			return Comparison{}, fmt.Errorf("rheemql: unexpected %q in comparison", t.text)
		}
	default:
		return Comparison{}, fmt.Errorf("rheemql: unexpected %q in comparison", t.text)
	}
	return cmp, nil
}

// numberLiteral reads a number token: an int when it has no dot and fits
// int64, a float otherwise. A token with a dot goes straight to
// ParseFloat, because a failed ParseInt allocates the *NumError it
// returns.
func numberLiteral(text string) (*Literal, error) {
	if !strings.Contains(text, ".") {
		if i64, err := strconv.ParseInt(text, 10, 64); err == nil {
			return &Literal{IsInt: true, Int: i64, Num: float64(i64)}, nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("rheemql: bad number %q", text)
	}
	return &Literal{Num: f}, nil
}
