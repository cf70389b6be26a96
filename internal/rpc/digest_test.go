package rpc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestEncodedBytesStable is the byte-stability oracle for the RPC
// payload codec: the SHA-256 digest of EncodePayload for every
// testMessages() entry, keyed by message type and its ordinal among
// entries of that type, computed before the codec moved onto
// internal/binenc. A refactor that moves one encoded byte fails here.
func TestEncodedBytesStable(t *testing.T) {
	want := map[string]string{
		"rpc.HealthReq#0":    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"rpc.HealthResp#0":   "0e910a171a4b41102aedef22b7a540408b62a326a6d208c925a0ffe6e51d9cdc",
		"rpc.HealthResp#1":   "349bedaac051be1e20b9781d8dfc903d00093e0eff3bf08fe7f95d5c17a98cea",
		"rpc.SummaryReq#0":   "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
		"rpc.SummaryReq#1":   "a3eb8db89fc5123ccfd49585059f292bc40a1c0d550b860f24f84efb4760fbf2",
		"rpc.SummaryResp#0":  "b305b542128f69e0f1d2644605e3f8845f1165bc225ba97155dbe78e52faacc1",
		"rpc.ASReq#0":        "28ce3e3170f66248f6c60242375938d3231aaeef8449c470493c56cf76092aae",
		"rpc.ASReq#1":        "66705053fd4ad17034f52564ccd27fa33561d2bc9e8910db4bd57a87fdc7d8da",
		"rpc.ASResp#0":       "bda57131e9193314e33539ce20c16407e778d9112f6fa8f78935d2dc061c329e",
		"rpc.ASResp#1":       "66ae8e406c415895a60ca27acd8852f0e96b325877b83136a3e8b46934c488b4",
		"rpc.PrefixReq#0":    "e13c836a035e3f0253ca8493fce8448e90221986c04801f76ccaeacdac1ed3d1",
		"rpc.PrefixReq#1":    "fba33181e3945badf2222771b0d1af6c3084c2fa716f47357cb63fa4cee5aa8e",
		"rpc.PrefixReq#2":    "de47c9b27eb8d300dbb5f2c353e632c393262cf06340c4fa7f1b40c4cbd36f90",
		"rpc.PrefixResp#0":   "867d817b3ec106a1af790392dcf64de76f10ffa6f485c91eccf961d5d8050171",
		"rpc.AddrReq#0":      "f19bc9c7087c4788ea72971efd2001967cffa3b7659e7cea7afea7a20098392a",
		"rpc.AddrReq#1":      "37cadf0a7516e92d4f1f473bf8d97328b98b280fc7a22107cdd1f271c735c022",
		"rpc.AddrResp#0":     "081661e8b212e4b239f27307d3bc6ccaa19f54a82d51062e56d5b1df94885143",
		"rpc.BlockReq#0":     "58a6f82c10922e48304ae8e80a67afa04672b343dcb7d0f694281b13e42726ae",
		"rpc.BlockReq#1":     "f1c9673c54488ff58360f9601b25a104316bdf84cfa39bbc4850d6de15ef2f3b",
		"rpc.BlockResp#0":    "b70e826670a1b87ed06d594692bd6d3c630821783a70156a3d96fe153d8d34ec",
		"rpc.BlockResp#1":    "3d712e7f1cd5c444a90a4cec2a9edf924335dfcb48d5f502d5c4b3127109faea",
		"rpc.BulkAddrReq#0":  "c766f8ead18134558d17189037a0814c11b7852271604883c30c93d83822b121",
		"rpc.BulkAddrReq#1":  "15ec7bf0b50732b49f8228e07d24365338f9e3ab994b00af08e5a3bffe55fd8b",
		"rpc.BulkAddrResp#0": "46e7c8153f3b57e170a9d489e5b9718b59f24573bcbee5aa8d7e583be06f9569",
		"rpc.DeltaReq#0":     "7b1e800d7e9c89e6d7940bf5a16b5f65fb3d810c8eafa7f1ca0d2948a054ec51",
		"rpc.DeltaReq#1":     "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
		"rpc.DeltaResp#0":    "aa270ce016532183e3719741e1d2263d0d9cf2a05b3ba038cb4cf10b98292da7",
		"rpc.DeltaResp#1":    "24045c10c12a89f4c11e3b88ea34558fcdf926a8c1008cd08cc33bc71407c774",
		"rpc.MovementReq#0":  "5dee4dd60ff8d0ba9900fe91e90e0dcf65f0570d42c431f727d0300dd70dc431",
		"rpc.MovementReq#1":  "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
		"rpc.MovementResp#0": "a66b59aa3f6da6fcfbcab337ccb507af31c409db6856f46f1f94a327686921d5",
		"rpc.MovementResp#1": "9e1736c43d19118e6ce4302118af337109491ecc52757dfb949bad6a7940b0c2",
		"rpc.ErrorResp#0":    "c34ab7ac6b2fdf9f664459b58127630a0637f161c93fce71ab01113c40b33fd1",
		"rpc.ErrorResp#1":    "f5bd4ee50415e1dc86751a91ef35e1338b6b2af9979058959a891f009310e26d",
		"rpc.ErrorResp#2":    "e3c0bf94131f982360500e4a4182258b8c51f70e06c36581714b8dff4462ffbd",
	}
	seen := map[string]int{}
	for _, m := range testMessages() {
		name := fmt.Sprintf("%T", m)
		key := fmt.Sprintf("%s#%d", name, seen[name])
		seen[name]++
		sum := sha256.Sum256(EncodePayload(m))
		got := hex.EncodeToString(sum[:])
		if w, ok := want[key]; !ok {
			t.Errorf("%q: %q,", key, got)
		} else if got != w {
			t.Errorf("%s: sha256 %s, want %s", key, got, w)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("%s: digest recorded but no such message in testMessages()", key)
	}
}
