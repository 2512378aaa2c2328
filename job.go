package rheem

import (
	"fmt"

	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// Job is a fluent builder for one analytic task. All DataQuanta handles
// derived from a job share its logical plan; combine handles from the
// same job with Union/Join/..., then terminate any handle with Collect.
type Job struct {
	ctx  *Context
	name string
	b    *plan.Builder
	err  error
}

// NewJob starts an empty job.
func (c *Context) NewJob(name string) *Job {
	return &Job{ctx: c, name: name, b: plan.NewBuilder(name)}
}

// DataQuanta is a handle to an intermediate dataset of a job — the
// fluent face of a logical operator's output. Methods append logical
// operators; errors are deferred to Collect/Plan.
type DataQuanta struct {
	job *Job
	op  *plan.Operator
}

func (j *Job) fail(err error) {
	if j.err == nil && err != nil {
		j.err = err
	}
}

func (j *Job) quanta(op *plan.Operator) *DataQuanta {
	return &DataQuanta{job: j, op: op}
}

// ReadCollection introduces in-memory records as a source. The hint
// for the optimizer's cardinality estimate is taken from the slice
// length.
func (j *Job) ReadCollection(name string, recs []data.Record) *DataQuanta {
	op := j.b.Source(name, plan.Collection(recs))
	op.CardHint = int64(len(recs))
	return j.quanta(op)
}

// ReadSource introduces an arbitrary source function with an explicit
// cardinality hint (0 = unknown).
func (j *Job) ReadSource(name string, fn plan.SourceFunc, cardHint int64) *DataQuanta {
	op := j.b.Source(name, fn)
	op.CardHint = cardHint
	return j.quanta(op)
}

// ShareScan declares that this source produces identical records to
// every other source sharing key, letting the optimizer's shared-scan
// rule merge them into one scan. Only call it on handles returned by
// ReadCollection/ReadSource, with sources that really are identical.
func (q *DataQuanta) ShareScan(key string) *DataQuanta {
	if q.op.Kind() != plan.KindSource {
		q.job.fail(fmt.Errorf("rheem: ShareScan on %s (want a source)", q.op.Kind()))
		return q
	}
	q.op.SetScanKey(key)
	return q
}

// Map appends a per-quantum transformation.
func (q *DataQuanta) Map(f plan.MapFunc) *DataQuanta {
	return q.job.quanta(q.job.b.Map(q.op, f))
}

// FlatMap appends a one-to-many transformation.
func (q *DataQuanta) FlatMap(f plan.FlatMapFunc) *DataQuanta {
	return q.job.quanta(q.job.b.FlatMap(q.op, f))
}

// Filter appends a predicate; selectivity (0 = unknown) hints the
// optimizer.
func (q *DataQuanta) Filter(f plan.FilterFunc, selectivity float64) *DataQuanta {
	op := q.job.b.Filter(q.op, f)
	op.Selectivity = selectivity
	return q.job.quanta(op)
}

// GroupBy appends per-key group processing.
func (q *DataQuanta) GroupBy(key plan.KeyFunc, f plan.GroupFunc) *DataQuanta {
	return q.job.quanta(q.job.b.GroupBy(q.op, key, f))
}

// ReduceByKey appends a per-key pairwise fold.
func (q *DataQuanta) ReduceByKey(key plan.KeyFunc, f plan.ReduceFunc) *DataQuanta {
	return q.job.quanta(q.job.b.ReduceByKey(q.op, key, f))
}

// Reduce appends a global fold to one record.
func (q *DataQuanta) Reduce(f plan.ReduceFunc) *DataQuanta {
	return q.job.quanta(q.job.b.Reduce(q.op, f))
}

// Sort appends an ordering.
func (q *DataQuanta) Sort(key plan.KeyFunc, desc bool) *DataQuanta {
	return q.job.quanta(q.job.b.Sort(q.op, key, desc))
}

// Distinct appends duplicate elimination.
func (q *DataQuanta) Distinct() *DataQuanta {
	return q.job.quanta(q.job.b.Distinct(q.op))
}

// Union appends a bag union with another handle of the same job.
func (q *DataQuanta) Union(o *DataQuanta) *DataQuanta {
	if o.job != q.job {
		q.job.fail(fmt.Errorf("rheem: Union across jobs"))
		o = q
	}
	return q.job.quanta(q.job.b.Union(q.op, o.op))
}

// Join appends an equi-join with another handle of the same job.
func (q *DataQuanta) Join(o *DataQuanta, lkey, rkey plan.KeyFunc) *DataQuanta {
	if o.job != q.job {
		q.job.fail(fmt.Errorf("rheem: Join across jobs"))
		o = q
	}
	return q.job.quanta(q.job.b.Join(q.op, o.op, lkey, rkey))
}

// ThetaJoin appends a predicate join; declarative inequality conditions
// enable the IEJoin physical operator.
func (q *DataQuanta) ThetaJoin(o *DataQuanta, pred plan.PredFunc, conds ...plan.IECondition) *DataQuanta {
	if o.job != q.job {
		q.job.fail(fmt.Errorf("rheem: ThetaJoin across jobs"))
		o = q
	}
	return q.job.quanta(q.job.b.ThetaJoin(q.op, o.op, pred, conds...))
}

// Cartesian appends a cross product with another handle of the same job.
func (q *DataQuanta) Cartesian(o *DataQuanta) *DataQuanta {
	if o.job != q.job {
		q.job.fail(fmt.Errorf("rheem: Cartesian across jobs"))
		o = q
	}
	return q.job.quanta(q.job.b.Cartesian(q.op, o.op))
}

// Count appends a record counter.
func (q *DataQuanta) Count() *DataQuanta {
	return q.job.quanta(q.job.b.Count(q.op))
}

// Sample appends take-first-n.
func (q *DataQuanta) Sample(n int) *DataQuanta {
	return q.job.quanta(q.job.b.Sample(q.op, n))
}

// Repeat appends a fixed-iteration loop. The body function receives the
// loop state handle and returns the next state; it runs against a
// nested loop-body plan, so sources read inside the body re-evaluate
// each iteration.
func (q *DataQuanta) Repeat(times int, body func(*LoopBody, *DataQuanta) *DataQuanta) *DataQuanta {
	bp, err := buildBody(q.job.name, body)
	if err != nil {
		q.job.fail(err)
		return q
	}
	return q.job.quanta(q.job.b.Repeat(q.op, times, bp))
}

// DoWhile appends a conditional loop continuing while cond returns
// true, bounded by maxIter.
func (q *DataQuanta) DoWhile(cond plan.CondFunc, maxIter int, body func(*LoopBody, *DataQuanta) *DataQuanta) *DataQuanta {
	bp, err := buildBody(q.job.name, body)
	if err != nil {
		q.job.fail(err)
		return q
	}
	return q.job.quanta(q.job.b.DoWhile(q.op, cond, maxIter, bp))
}

// LoopBody is the fluent builder scope of a loop body; it offers the
// same sources as a Job so bodies can join loop state with data.
type LoopBody struct {
	job *Job // a synthetic body job
}

// ReadCollection introduces in-memory records inside the loop body.
func (lb *LoopBody) ReadCollection(name string, recs []data.Record) *DataQuanta {
	op := lb.job.b.Source(name, plan.Collection(recs))
	op.CardHint = int64(len(recs))
	return lb.job.quanta(op)
}

// ReadSource introduces a source function inside the loop body.
func (lb *LoopBody) ReadSource(name string, fn plan.SourceFunc, cardHint int64) *DataQuanta {
	op := lb.job.b.Source(name, fn)
	op.CardHint = cardHint
	return lb.job.quanta(op)
}

func buildBody(name string, body func(*LoopBody, *DataQuanta) *DataQuanta) (*plan.Plan, error) {
	bb := plan.NewBodyBuilder(name + ".body")
	bodyJob := &Job{name: name + ".body", b: bb}
	lb := &LoopBody{job: bodyJob}
	state := bodyJob.quanta(bb.LoopInput("state"))
	out := body(lb, state)
	if out == nil {
		return nil, fmt.Errorf("rheem: loop body returned nil")
	}
	if out.job != bodyJob {
		return nil, fmt.Errorf("rheem: loop body returned a handle from outside the body")
	}
	if bodyJob.err != nil {
		return nil, bodyJob.err
	}
	bb.Collect(out.op)
	return bb.Build()
}

// Plan terminates the handle into a validated logical plan without
// executing it.
func (q *DataQuanta) Plan() (*plan.Plan, error) {
	if q.job.err != nil {
		return nil, q.job.err
	}
	// Each Collect gets a fresh builder? Builders are single-use; to
	// allow multiple terminal calls on one job we rebuild via the
	// existing builder only once.
	q.job.b.Collect(q.op)
	return q.job.b.Build()
}

// Collect terminates the handle, executes the job, and returns the
// records with a run report.
func (q *DataQuanta) Collect(opts ...RunOption) ([]data.Record, *Report, error) {
	if q.job.ctx == nil {
		return nil, nil, fmt.Errorf("rheem: Collect on a loop-body handle")
	}
	p, err := q.Plan()
	if err != nil {
		return nil, nil, err
	}
	return q.job.ctx.Execute(p, opts...)
}
