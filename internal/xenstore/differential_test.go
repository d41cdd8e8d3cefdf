package xenstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The differential test drives the store and the pre-persistent-tree
// reference model (model_test.go) with one op stream — a record set is
// consecutive Writes to the model — and demands the same answer to
// everything observable: each return value and error,
// each Commit verdict, Stats, OwnedNodes, the watch-event sequence and
// the final tree, generation stamps included.

var (
	modelDoms  = []DomID{Dom0, 3, 7}
	modelRecs  = []Reconciler{CReconciler{}, OCamlReconciler{}, JitsuReconciler{}}
	modelBases = []string{"/tool", "/local/domain", "/conduit", "/tool/guest", "/tool/rc"}
	// Six names, so directories cross the four children a node keeps
	// inline, both ways.
	modelNames = []string{"a", "b", "c", "d", "e", "f"}
	modelPerms = []Perms{
		{Owner: Dom0, Others: AccessRead},
		{Owner: 3, Others: AccessNone},
		{Owner: 3, Others: AccessWrite, RestrictCreate: true},
		{Owner: 7, Others: AccessReadWrite, Entries: []PermEntry{{Dom: 3, Access: AccessRead}}},
	}
)

// opStream deals bytes of the fuzz input; a spent stream deals zeros.
type opStream struct {
	b []byte
	i int
}

func (o *opStream) next() int {
	if o.i >= len(o.b) {
		return 0
	}
	o.i++
	return int(o.b[o.i-1])
}

func (o *opStream) path() string {
	b := o.next()
	p := modelBases[b%len(modelBases)]
	for depth := 1 + b/len(modelBases)%3; depth > 0; depth-- {
		p += "/" + modelNames[o.next()%len(modelNames)]
	}
	if b >= 250 {
		p = "bad path" // ErrBadPath must come back from both
	}
	return p
}

type txPair struct {
	real *Tx
	ref  *refTx
}

// commit ends the pair and returns both verdicts, having noted in
// modelCommits which of Commit's two outcomes the store is about to
// take (a verdict of ErrAgain or an empty log takes neither).
func (p *txPair) commit(kind int) (got, want error) {
	ff, foreign, logged := p.real.fastForward(), p.real.foreign, len(p.real.ops) > 0
	got, want = p.real.Commit(), p.ref.commit()
	if got == nil && logged {
		c := &modelCommits[kind]
		if ff {
			c.fastForward++
		} else {
			c.merge++
		}
		if foreign {
			c.foreign++
		}
	}
	return got, want
}

// modelCommits counts, per reconciler, the commits runModel has seen
// land by each outcome, and those written through by a domain other
// than the opener.
var modelCommits [3]struct{ fastForward, merge, foreign int }

// runModel plays ops against both stores and reports the first
// disagreement.
func runModel(t *testing.T, ops []byte) {
	t.Helper()
	o := &opStream{b: ops}
	first := o.next()
	kind := first % 3
	// Half the streams keep to the toolstack's habits, which are what
	// let a commit fast-forward: a transaction is worked as the domain
	// that opened it, and while one is open nothing is written beside
	// it. The rest mix domains and immediate writes freely.
	tidy := first/3%2 == 1
	s, ref := NewStore(modelRecs[kind]), newRefStore(kind)
	s.NodeQuota = 6
	ref.quota = 6
	setup := func(path string, p Perms) {
		errA, errB := s.Mkdir(Dom0, nil, path), ref.mutate(nil, opMkdir, Dom0, path, "", Perms{})
		errC, errD := s.SetPerms(Dom0, nil, path, p), ref.mutate(nil, opSetPerms, Dom0, path, "", p)
		if errA != nil || errB != nil || errC != nil || errD != nil {
			t.Fatalf("setup %s: %v %v %v %v", path, errA, errB, errC, errD)
		}
	}
	setup("/tool/guest", modelPerms[1])
	setup("/tool/rc", modelPerms[2])

	var log []string
	var watches []*Watch
	var refWatches []*refWatch
	var slots [4]*txPair
	var latest *txPair // the last one begun, while it is open
	closed := &txPair{real: s.Begin(Dom0), ref: ref.begin(Dom0)}
	closed.real.Abort()
	closed.ref.closed = true

	step := 0
	same := func(what string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if gotErr != wantErr || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d %s: store (%v, %v), model (%v, %v)", step, what, got, gotErr, want, wantErr)
		}
	}
	for o.i < len(o.b) {
		step++
		b := o.next()
		dom := modelDoms[b/16%len(modelDoms)]
		// The transaction an op runs in: an open slot, none (immediate),
		// or now and then one that has already ended.
		var tx txPair
		if k := b / 64; slots[k] != nil {
			tx = *slots[k]
		} else if b/16%8 == 7 {
			tx = *closed
		}
		if tidy {
			if tx.real == nil && latest != nil {
				tx = *latest
			}
			if tx.real != nil {
				dom = tx.real.dom
			}
		}
		switch b % 16 {
		case 0, 1, 2:
			p, v := o.path(), fmt.Sprint("v", o.next())
			same("Write "+p, nil, nil, s.Write(dom, tx.real, p, v), ref.mutate(tx.ref, opWrite, dom, p, v, Perms{}))
		case 3: // a record set: to the model, consecutive Writes
			base, recs := o.path(), make([]Record, 1+o.next()%4)
			for i := range recs {
				k := o.next()
				recs[i].Key = "/" + modelNames[k%len(modelNames)]
				if k/len(modelNames)%2 == 1 {
					recs[i].Key += "/" + modelNames[o.next()%len(modelNames)]
				}
				recs[i].Value = fmt.Sprint("v", o.next())
			}
			var want error
			for _, r := range recs {
				if want = ref.mutate(tx.ref, opWrite, dom, base+r.Key, r.Value, Perms{}); want != nil {
					break
				}
			}
			same(fmt.Sprint("WriteRecords ", base, recs), nil, nil, s.WriteRecords(dom, tx.real, base, recs), want)
		case 4:
			p := o.path()
			same("Mkdir "+p, nil, nil, s.Mkdir(dom, tx.real, p), ref.mutate(tx.ref, opMkdir, dom, p, "", Perms{}))
		case 5, 6:
			p := o.path()
			same("Rm "+p, nil, nil, s.Rm(dom, tx.real, p), ref.mutate(tx.ref, opRm, dom, p, "", Perms{}))
		case 7:
			p, perms := o.path(), modelPerms[o.next()%len(modelPerms)]
			same("SetPerms "+p, nil, nil, s.SetPerms(dom, tx.real, p, perms), ref.mutate(tx.ref, opSetPerms, dom, p, "", perms))
		case 8:
			p := o.path()
			got, err := s.Read(dom, tx.real, p)
			want, wantErr := ref.get('r', dom, tx.ref, p)
			same("Read "+p, got, want, err, wantErr)
		case 9:
			p := o.path()
			got, err := s.List(dom, tx.real, p)
			want, wantErr := ref.get('l', dom, tx.ref, p)
			same("List "+p, strings.Join(got, ","), want, err, wantErr)
		case 10:
			p := o.path()
			got, err := s.Exists(dom, tx.real, p)
			want, wantErr := ref.get('e', dom, tx.ref, p)
			same("Exists "+p, got, want == "true", err, wantErr)
		case 11:
			p := o.path()
			got, err := s.GetPerms(dom, tx.real, p)
			want, wantErr := ref.get('p', dom, tx.ref, p)
			if err != nil {
				got, want = Perms{}, fmt.Sprint(Perms{})
			}
			same("GetPerms "+p, got, want, err, wantErr)
		case 12, 13: // Begin in a free slot, else end the one there
			k := b / 64
			if slots[k] == nil {
				slots[k] = &txPair{real: s.Begin(dom), ref: ref.begin(dom)}
				latest = slots[k]
				break
			}
			if latest == slots[k] {
				latest = nil
			}
			if b%16 == 12 {
				got, want := slots[k].commit(kind)
				same("Commit", nil, nil, got, want)
			} else {
				slots[k].real.Abort()
				slots[k].ref.closed = true
			}
			slots[k] = nil
		case 14:
			p, token := o.path(), fmt.Sprint("t", len(watches))
			w, err := s.WatchPath(dom, p, token, func(path, token string) { log = append(log, path+"|"+token) })
			if _, splitErr := SplitPath(p); err != splitErr {
				t.Fatalf("step %d WatchPath %s: %v, want %v", step, p, err, splitErr)
			}
			if err == nil {
				watches, refWatches = append(watches, w), append(refWatches, ref.watch(p, token))
			}
		case 15:
			if len(watches) > 0 {
				i := o.next() % len(watches)
				s.Unwatch(watches[i])
				refWatches[i].dead = true
			}
		}
		if !slices.IsSortedFunc(s.root.kids, func(a, b *node) int { return strings.Compare(a.name, b.name) }) {
			t.Fatalf("step %d: root children out of order", step)
		}
	}
	// Commit what is still open, in slot order, then compare the state.
	for _, tx := range slots {
		if tx != nil {
			step++
			got, want := tx.commit(kind)
			same("final Commit", nil, nil, got, want)
		}
	}
	sameState(t, s, ref, log)
}

// sameState compares everything that outlives an op stream: counters,
// quota ownership, the watch events delivered (log is the store's) and
// the tree, generation stamps included.
func sameState(t *testing.T, s *Store, ref *refStore, log []string) {
	t.Helper()
	if s.Stats() != ref.stats {
		t.Fatalf("Stats: store %+v, model %+v", s.Stats(), ref.stats)
	}
	for _, dom := range modelDoms {
		if s.OwnedNodes(dom) != ref.owned[dom] {
			t.Fatalf("OwnedNodes(%d): store %d, model %d", dom, s.OwnedNodes(dom), ref.owned[dom])
		}
	}
	if !slices.Equal(log, ref.log) {
		t.Fatalf("watch events:\nstore %v\nmodel %v", log, ref.log)
	}
	var got, want []string
	s.root.dump("/", &got)
	ref.root.dump("/", &want)
	if !slices.Equal(got, want) {
		t.Fatalf("tree:\nstore %s\nmodel %s", strings.Join(got, "\n      "), strings.Join(want, "\n      "))
	}
}

func TestStoreMatchesModel(t *testing.T) {
	clear(modelCommits[:])
	for seed := int64(0); seed < 1000; seed++ {
		ops := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runModel(t, ops) })
	}
	// Both of Commit's outcomes must have been held to the model under
	// every reconciler, and the rule that keeps a foreign domain's
	// writes off the fast path must have had something to decide.
	for kind, c := range modelCommits {
		if c.fastForward == 0 || c.merge == 0 || c.foreign == 0 {
			t.Errorf("%s: %d fast-forward, %d merge, %d foreign-domain commits; want each > 0",
				modelRecs[kind].Name(), c.fastForward, c.merge, c.foreign)
		}
	}
	t.Logf("commits by outcome: %+v", modelCommits)
}

func FuzzStoreModel(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		ops := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(runModel)
}
