package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"enld/internal/mat"
)

// buildIDX writes a valid IDX image+label pair for testing.
func buildIDX(t *testing.T, images [][]byte, rows, cols int, labels []byte) (img, lbl *bytes.Buffer) {
	t.Helper()
	img = &bytes.Buffer{}
	for _, v := range []uint32{idxMagicImages, uint32(len(images)), uint32(rows), uint32(cols)} {
		if err := binary.Write(img, binary.BigEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, im := range images {
		img.Write(im)
	}
	lbl = &bytes.Buffer{}
	for _, v := range []uint32{idxMagicLabels, uint32(len(labels))} {
		if err := binary.Write(lbl, binary.BigEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	lbl.Write(labels)
	return img, lbl
}

func TestLoadIDX(t *testing.T) {
	images := [][]byte{
		{0, 128, 255, 0},
		{255, 255, 0, 0},
	}
	img, lbl := buildIDX(t, images, 2, 2, []byte{3, 7})
	set, err := LoadIDX(img, lbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("%d samples", len(set))
	}
	if set[0].Observed != 3 || set[1].Observed != 7 {
		t.Fatalf("labels %d, %d", set[0].Observed, set[1].Observed)
	}
	if set[0].X[2] != 1 || set[0].X[0] != 0 {
		t.Fatalf("pixel scaling: %v", set[0].X)
	}
	if math.Abs(set[0].X[1]-128.0/255) > 1e-12 {
		t.Fatalf("pixel scaling: %v", set[0].X[1])
	}
}

func TestLoadIDXErrors(t *testing.T) {
	images := [][]byte{{1, 2, 3, 4}}
	img, lbl := buildIDX(t, images, 2, 2, []byte{1, 2}) // label count mismatch
	if _, err := LoadIDX(img, lbl); err == nil {
		t.Error("count mismatch accepted")
	}
	// Bad magic.
	bad := &bytes.Buffer{}
	binary.Write(bad, binary.BigEndian, uint32(0xdeadbeef))
	_, lbl2 := buildIDX(t, images, 2, 2, []byte{1})
	if _, err := LoadIDX(bad, lbl2); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated image payload.
	img3, lbl3 := buildIDX(t, [][]byte{{1, 2}}, 2, 2, []byte{1}) // 2 bytes for 4-pixel image
	if _, err := LoadIDX(img3, lbl3); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestLoadCSV(t *testing.T) {
	in := strings.NewReader("f1,f2,label\n1.5,2.5,0\n3.0,4.0,2\n")
	set, err := LoadCSV(in, CSVOptions{LabelColumn: -1, HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("%d samples", len(set))
	}
	if set[0].X[0] != 1.5 || set[0].X[1] != 2.5 || set[0].Observed != 0 {
		t.Fatalf("sample 0: %+v", set[0])
	}
	if set[1].Observed != 2 {
		t.Fatalf("sample 1 label %d", set[1].Observed)
	}
}

func TestLoadCSVLabelFirst(t *testing.T) {
	in := strings.NewReader("1,0.5,0.6\n0,0.7,0.8\n")
	set, err := LoadCSV(in, CSVOptions{LabelColumn: 0})
	if err != nil {
		t.Fatal(err)
	}
	if set[0].Observed != 1 || set[0].X[0] != 0.5 {
		t.Fatalf("sample 0: %+v", set[0])
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader(""), CSVOptions{}); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := LoadCSV(strings.NewReader("a,b\n"), CSVOptions{LabelColumn: 1}); err == nil {
		t.Error("non-numeric label accepted")
	}
	if _, err := LoadCSV(strings.NewReader("x,1\n"), CSVOptions{LabelColumn: 1}); err == nil {
		t.Error("non-numeric feature accepted")
	}
	if _, err := LoadCSV(strings.NewReader("1,2\n"), CSVOptions{LabelColumn: 5}); err == nil {
		t.Error("out-of-range label column accepted")
	}
}

func TestFitPCARecoversVarianceDirection(t *testing.T) {
	// Data spread along (1, 1, 0) with small noise elsewhere: the first
	// component must align with it.
	rng := mat.NewRNG(100)
	set := make(Set, 400)
	for i := range set {
		tv := rng.Norm() * 5
		set[i] = Sample{ID: i, X: []float64{
			tv + rng.Norm()*0.1,
			tv + rng.Norm()*0.1,
			rng.Norm() * 0.1,
		}}
	}
	p, err := FitPCA(set, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	c0 := p.Components[0]
	// Alignment with (1,1,0)/sqrt(2) up to sign.
	want := 1 / math.Sqrt2
	dot := c0[0]*want + c0[1]*want
	if math.Abs(math.Abs(dot)-1) > 0.01 {
		t.Fatalf("first component %v not aligned with (1,1,0)", c0)
	}
	// Components are unit length and orthogonal.
	if math.Abs(mat.Norm2(c0)-1) > 1e-9 {
		t.Fatal("component not unit")
	}
	if math.Abs(mat.Dot(p.Components[0], p.Components[1])) > 1e-6 {
		t.Fatal("components not orthogonal")
	}
}

func TestPCAProjectAndApply(t *testing.T) {
	rng := mat.NewRNG(101)
	set := make(Set, 50)
	for i := range set {
		set[i] = Sample{ID: i, X: rng.NormVec(make([]float64, 6), 0, 1), Observed: i % 3, True: i % 3}
	}
	p, err := FitPCA(set, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := p.Apply(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(reduced) != len(set) || len(reduced[0].X) != 2 {
		t.Fatalf("reduced shape %d × %d", len(reduced), len(reduced[0].X))
	}
	// Labels and IDs preserved; originals untouched.
	if reduced[3].ID != set[3].ID || reduced[3].Observed != set[3].Observed {
		t.Fatal("metadata lost")
	}
	if len(set[0].X) != 6 {
		t.Fatal("original mutated")
	}
	if _, err := p.Project([]float64{1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestFitPCAErrors(t *testing.T) {
	rng := mat.NewRNG(1)
	if _, err := FitPCA(Set{{X: []float64{1}}}, 1, rng); err == nil {
		t.Error("single sample accepted")
	}
	two := Set{{X: []float64{1, 2}}, {X: []float64{3, 4}}}
	if _, err := FitPCA(two, 0, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FitPCA(two, 3, rng); err == nil {
		t.Error("k > dim accepted")
	}
	ragged := Set{{X: []float64{1, 2}}, {X: []float64{3}}}
	if _, err := FitPCA(ragged, 1, rng); err == nil {
		t.Error("ragged accepted")
	}
}

func TestPCAEndToEndWithIDX(t *testing.T) {
	// The documented real-data path: IDX pixels → PCA → compact features.
	rng := mat.NewRNG(102)
	const n, rows, cols = 60, 4, 4
	images := make([][]byte, n)
	labels := make([]byte, n)
	for i := range images {
		img := make([]byte, rows*cols)
		// Two "classes": bright top half versus bright bottom half.
		labels[i] = byte(i % 2)
		for px := range img {
			base := 30
			if (labels[i] == 0) == (px < rows*cols/2) {
				base = 220
			}
			img[px] = byte(base + rng.Intn(30))
		}
		images[i] = img
	}
	imgBuf, lblBuf := buildIDX(t, images, rows, cols, labels)
	set, err := LoadIDX(imgBuf, lblBuf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FitPCA(set, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := p.Apply(set)
	if err != nil {
		t.Fatal(err)
	}
	// The two classes must separate along the leading components: a
	// nearest-class-mean rule should be near perfect.
	means := classMeansOf(reduced, 2, 2)
	correct := 0
	for _, s := range reduced {
		d0, d1 := mat.SqDist(s.X, means[0]), mat.SqDist(s.X, means[1])
		pred := 0
		if d1 < d0 {
			pred = 1
		}
		if pred == s.True {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(reduced)); acc < 0.95 {
		t.Fatalf("PCA features do not separate classes: acc %v", acc)
	}
}
