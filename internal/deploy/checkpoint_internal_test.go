package deploy

import (
	"testing"

	"outran/internal/snapshot/snapshottest"
)

// TestCheckpointMetaFieldsWalked: every field of the deployment section
// is written to the checkpoint file and read back.
func TestCheckpointMetaFieldsWalked(t *testing.T) {
	snapshottest.Fields(t, (*CheckpointMeta).walk, nil)
}
