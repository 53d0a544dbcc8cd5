package meta

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"dpfs/internal/codec/codectest"
	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
)

// The catalog codec (internal/metadb) replaced gob on mdbnet's two
// protocols. These tests hold it to gob's observable behaviour on the
// catalog's own traffic, and fuzz its decoders with that traffic as
// the seed.

// gobResponse is the shape mdbnet's responses had under gob.
type gobResponse struct {
	Results []*metadb.Result
	Err     string
}

// gobRoundTrip returns what v becomes after a gob encode and decode.
func gobRoundTrip[T any](t testing.TB, v T) T {
	t.Helper()
	var buf bytes.Buffer
	var out T
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// codecBatches are the SQL corpus: every statement catalogStatements
// enumerates, each in its own transaction rolled back afterwards, the
// benchmark's three texts, and a batch failing mid-way.
func codecBatches() [][]metadb.Stmt {
	var batches [][]metadb.Stmt
	for _, st := range catalogStatements {
		batch := []metadb.Stmt{q(sqlBegin), q(st.sql, st.args...), q(sqlRollback)}
		switch st.name {
		case "sqlBegin":
			batch = batch[1:]
		case "sqlCommit", "sqlRollback":
			batch = batch[:2]
		}
		batches = append(batches, batch)
	}
	for _, st := range benchmarkStatements {
		batches = append(batches, []metadb.Stmt{q(st.sql)})
	}
	return append(batches, []metadb.Stmt{
		q(sqlBegin), q(sqlReadAttr, str("/d/f")), q(sqlInsertEntry, str("/d"), str("/"), str(kindDir)), q(sqlListFiles), q(sqlRollback),
	})
}

// codecReplMsgs are the replication corpus: one message of every kind,
// the record carrying a redo operation of every kind over NULL, INTEGER
// and TEXT values, empty strings and the extreme integers.
func codecReplMsgs(t testing.TB) []*mdbnet.ReplMsg {
	snap, err := statementFixture(t).StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	vals := []metadb.Value{metadb.Null(), metadb.I(0), metadb.I(math.MinInt64), metadb.I(math.MaxInt64), metadb.I(-1), metadb.S(""), metadb.S("/d/f"), metadb.S("naïve 'x'\x00")}
	ops := []metadb.RedoOp{
		{Kind: "create", Table: "t", Cols: []metadb.ColumnDef{
			{Name: "id", Type: metadb.KindInt, PrimaryKey: true, NotNull: true},
			{Name: "s", Type: metadb.KindText},
			{Name: "", Type: metadb.KindNull, NotNull: true},
		}},
		{Kind: "createindex", Table: "t", Index: "t_by_s", Col: "s"},
		{Kind: "insert", Table: "t", RowID: 1, Vals: vals},
		{Kind: "update", Table: "t", RowID: math.MaxInt64, Vals: vals[:2]},
		{Kind: "delete", Table: "t", RowID: math.MinInt64},
		{},
	}
	return []*mdbnet.ReplMsg{
		{Kind: mdbnet.ReplHello, From: 1, Epoch: 3, Seq: -1, LastEpoch: 2},
		{Kind: mdbnet.ReplSnapshot, From: 1, Epoch: 3, Seq: 42, LastEpoch: 3, Snap: snap},
		{Kind: mdbnet.ReplRecord, From: 1, Epoch: 3, Seq: 43, Ops: ops},
		{Kind: mdbnet.ReplHeartbeat, From: 1, Epoch: 3, Seq: 43},
		{Kind: mdbnet.ReplAck, From: 2, Epoch: 3, Seq: 43, Ok: true},
		{Kind: mdbnet.ReplVoteReq, From: 2, Epoch: 4, Seq: 43, LastEpoch: 3},
		{Kind: mdbnet.ReplVote, From: 0, Epoch: 4, Ok: true},
		{Kind: mdbnet.ReplError, From: 0, Epoch: math.MaxInt64, Err: "stale epoch 3 < 4"},
		{From: -1, Epoch: math.MinInt64, Snap: []byte{}, Ops: []metadb.RedoOp{}},
	}
}

// TestCatalogCodecMatchesGob holds the codec to gob: a batch sent over
// mdbnet comes back exactly as its locally executed results do after a
// gob round trip, and statements and replication messages decode as
// gob decodes them.
func TestCatalogCodecMatchesGob(t *testing.T) {
	t.Run("results", func(t *testing.T) {
		db := statementFixture(t)
		srv, err := mdbnet.Listen(db, "")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli, err := mdbnet.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		batches := codecBatches()
		for i, batch := range batches {
			if got := decodeStmts(t, metadb.AppendStmts(nil, batch)); !reflect.DeepEqual(got, gobRoundTrip(t, batch)) {
				t.Errorf("%s: statements decode as %v, gob as %v", batch[0].SQL, got, gobRoundTrip(t, batch))
			}

			sess := db.Session()
			res, err := sess.Batch(batch)
			sess.Abort()
			want := gobResponse{Results: res}
			if err != nil {
				want.Err = err.Error()
			}
			if i == len(batches)-1 && want.Err == "" {
				t.Fatal("the last batch must fail mid-way")
			}
			want = gobRoundTrip(t, want)
			if got := decodeResults(t, metadb.AppendResults(nil, res)); !reflect.DeepEqual(got, want.Results) {
				t.Errorf("%v: results decode as %v, gob as %v", batch, got, want.Results)
			}

			got, err := cli.Batch(batch)
			gotErr := ""
			if err != nil {
				gotErr = err.Error()
				if _, err := cli.Exec(sqlRollback); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got, want.Results) || gotErr != want.Err {
				t.Errorf("%v over mdbnet: %v, %q; under gob %v, %q", batch, got, gotErr, want.Results, want.Err)
			}
		}
	})
	t.Run("replication", func(t *testing.T) {
		for _, m := range codecReplMsgs(t) {
			got, err := mdbnet.DecodeReplMsg(m.AppendTo(nil))
			if err != nil {
				t.Fatalf("%q: %v", m.Kind, err)
			}
			if want := gobRoundTrip(t, m); !reflect.DeepEqual(got, want) {
				t.Errorf("%q decodes as %+v, gob as %+v", m.Kind, got, want)
			}
		}
	})
}

func decodeStmts(t testing.TB, body []byte) []metadb.Stmt {
	t.Helper()
	d := metadb.NewDecoder(body)
	stmts := d.Stmts()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return stmts
}

func decodeResults(t testing.TB, body []byte) []*metadb.Result {
	t.Helper()
	d := metadb.NewDecoder(body)
	res := d.Results()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return res
}

// codecDecoders are the catalog codec's entry points for untrusted
// bodies, each with the encoder that inverts it.
var codecDecoders = []struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}{
	{"stmts", func(b []byte) (any, error) {
		d := metadb.NewDecoder(b)
		v := d.Stmts()
		return v, d.Finish()
	}, func(v any) []byte { return metadb.AppendStmts(nil, v.([]metadb.Stmt)) }},
	{"results", func(b []byte) (any, error) {
		d := metadb.NewDecoder(b)
		v := d.Results()
		return v, d.Finish()
	}, func(v any) []byte { return metadb.AppendResults(nil, v.([]*metadb.Result)) }},
	{"redo", func(b []byte) (any, error) {
		d := metadb.NewDecoder(b)
		v := d.RedoOps()
		return v, d.Finish()
	}, func(v any) []byte { return metadb.AppendRedoOps(nil, v.([]metadb.RedoOp)) }},
	{"repl", func(b []byte) (any, error) { return mdbnet.DecodeReplMsg(b) },
		func(v any) []byte { return v.(*mdbnet.ReplMsg).AppendTo(nil) }},
}

// codecSeeds are FuzzCatalogCodec's seeds: the equivalence corpus.
func codecSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	db := statementFixture(t)
	for _, batch := range codecBatches() {
		seeds = append(seeds, metadb.AppendStmts(nil, batch))
		sess := db.Session()
		res, _ := sess.Batch(batch)
		sess.Abort()
		seeds = append(seeds, metadb.AppendResults(nil, res))
	}
	for _, m := range codecReplMsgs(t) {
		seeds = append(seeds, m.AppendTo(nil), metadb.AppendRedoOps(nil, m.Ops))
	}
	return seeds
}

// TestCatalogCodecDigests is the differential equivalence gate of the
// catalog codec's decoders: each decodes FuzzCatalogCodec's seeds,
// every prefix of them and a fixed set of one-byte mutations, and the
// hash of what it accepted and what it decoded is pinned.
func TestCatalogCodecDigests(t *testing.T) {
	want := map[string]string{"stmts": "e439cb9a1ff644cc", "results": "d274aa45219099e7", "redo": "ba7572fe9bf80e4f", "repl": "d915477603e3c722"}
	corpus := codectest.Corpus(codecSeeds(t), 4000)
	for _, c := range codecDecoders {
		if got := codectest.Digest(corpus, c.decode); got != want[c.name] {
			t.Errorf("%s: digest %s, want %s", c.name, got, want[c.name])
		}
	}
}

// FuzzCatalogCodec feeds arbitrary bodies to every decoder of the
// catalog codec: none may panic or allocate more than a small multiple
// of the body, and whatever decodes must survive encode and decode
// unchanged. The seeds are the equivalence corpus.
func FuzzCatalogCodec(f *testing.F) {
	for _, seed := range codecSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, c := range codecDecoders {
			if n := codectest.AllocBytes(func() { c.decode(body) }); n > uint64(64*len(body)+1024) {
				t.Fatalf("%s: %d-byte body allocated %d bytes", c.name, len(body), n)
			}
			v, err := c.decode(body)
			if err != nil {
				continue
			}
			again, err := c.decode(c.encode(v))
			if err != nil || !reflect.DeepEqual(again, v) {
				t.Fatalf("%s: %+v re-decodes as %+v (%v)", c.name, v, again, err)
			}
		}
	})
}
