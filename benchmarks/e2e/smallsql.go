package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"rheem"
	"rheem/internal/apps/rheemql"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/service"
)

// smallSQL is small-sql: the eight RheemQL templates over
// service.DefaultCatalog(500) through rheemql.Run with free optimiser
// choice. The kernels are trivial; parse, compile, translate, optimise
// and the executor's fixed per-job overhead are the job.
type smallSQL struct {
	seed    uint64
	tables  *tables
	answers [][]*answer
	cat     *rheemql.Catalog
	ctx     *rheem.Context
}

func (w *smallSQL) name() string { return "small-sql" }
func (w *smallSQL) clients() int { return 1 }

func (w *smallSQL) setup(seed uint64, sc scale) error {
	w.seed = seed
	w.tables = loadTables(sc.sqlCatalog)
	w.answers = sqlAnswers(w.tables)
	var err error
	if w.cat, err = service.DefaultCatalog(sc.sqlCatalog); err != nil {
		return err
	}
	w.ctx, err = rheem.NewContext(rheem.Config{})
	return err
}

func (w *smallSQL) engine() *rheem.Context { return w.ctx }

func (w *smallSQL) close() { w.ctx.Close() }

// query is job i's template and literal: templates round-robin, the
// literal from the seed.
func (w *smallSQL) query(i int) (tpl, lit int) {
	return i % len(sqlTemplates), pick(w.seed, i, sqlLits)
}

func (w *smallSQL) sql(i int) string {
	tpl, lit := w.query(i)
	return sqlTemplates[tpl].render(lit)
}

func (w *smallSQL) inputDigest() string {
	h := sha256.New()
	for i := 0; i < 256; i++ {
		io.WriteString(h, w.sql(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *smallSQL) build(rec *recorder, i, parent int) (*plan.Plan, error) {
	return compileSQL(w.cat, w.sql(i), rec, i, parent)
}

// compileSQL is rheemql.Run's front half as explicit layer calls.
func compileSQL(cat *rheemql.Catalog, sql string, rec *recorder, job, parent int) (*plan.Plan, error) {
	id := rec.begin(job, parent, "rheemql.parse")
	q, err := rheemql.Parse(sql)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(job, parent, "rheemql.compile")
	c, err := rheemql.Compile(q, cat)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return c.Plan, nil
}

func (w *smallSQL) optOptions(*physical.Plan) optimizer.Options { return optimizer.Options{} }

func (w *smallSQL) verify(i int, recs []data.Record) error {
	got, err := rowsFromRecords(recs)
	if err != nil {
		return fmt.Errorf("small-sql: %w", err)
	}
	tpl, lit := w.query(i)
	if err := w.answers[tpl][lit].check(got); err != nil {
		return fmt.Errorf("small-sql %s/%d: %w", sqlTemplates[tpl].name, lit, err)
	}
	return nil
}

func (w *smallSQL) sample() []data.Record { return w.tables.records() }
func (w *smallSQL) inputRows() int        { return len(w.tables.sensors) }

func (w *smallSQL) job(i int) error {
	_, err := engineJob(w, w.ctx, nil, i, func(i int) ([]data.Record, error) {
		recs, _, _, err := rheemql.Run(w.ctx, w.cat, w.sql(i))
		return recs, err
	})
	return err
}
