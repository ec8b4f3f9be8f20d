package analysis_test

import (
	"go/constant"
	"go/types"
	"testing"
)

// TestLoaderHonorsBuildConstraints loads a package whose race and
// !race files each declare the same constant: the loader must keep
// only the file go build would, not type-check both as one package.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	pkg := loadTestdataPkg(t, "buildtags")
	if n := len(pkg.Files); n != 1 {
		t.Fatalf("loaded %d files, want 1", n)
	}
	c, ok := pkg.Types.Scope().Lookup("raceEnabled").(*types.Const)
	if !ok || constant.BoolVal(c.Val()) {
		t.Fatalf("raceEnabled = %v, want the !race file's false", c)
	}
}
