open Import

(* Structural fingerprinting of precedence graphs.

   The service keys its result cache on *structure*, not on vertex
   names or insertion order: two clients submitting the same dataflow
   under different labels must share one cache line. Each vertex gets a
   signature by two Weisfeiler–Lehman-style sweeps — a forward hash
   folding (op, delay) with the operand-ordered predecessor signatures
   (operand order is semantic: preds double as the operand list), and a
   backward hash folding the successor signatures commutatively
   (successor order is storage noise). The graph hash combines the
   vertex-signature multiset with an edge term, both order-independent,
   so any isomorphic presentation of the same dataflow hashes equal,
   and any single structural edit moves the hash with overwhelming
   probability (64-bit splitmix mixing). *)

(* splitmix64 finalizer: a cheap full-avalanche 64-bit mixer. Inlined,
   like [combine], so the [Int64] values stay unboxed in the loops
   below. *)
let[@inline] mix (x : int64) : int64 =
  let open Int64 in
  let x = add x 0x9e3779b97f4a7c15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let[@inline] combine h x = mix (Int64.add (Int64.mul h 0x100000001b3L) x)

(* Folds the bytes of [s] into [h]: from the FNV offset basis, this is
   the hash of [s]. *)
let[@inline] fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := combine !h (Int64.of_int (Char.code (String.unsafe_get s i)))
  done;
  !h

(* The hash of [Op.to_string op], without building the string for the
   parameterised ops. *)
let op_hash op =
  let basis = 0xcbf29ce484222325L in
  let wrapped prefix body = fold_string (fold_string (fold_string basis prefix) body) ")" in
  match op with
  | Op.Const c -> wrapped "const(" (string_of_int c)
  | Op.Input s -> wrapped "in(" s
  | Op.Output s -> wrapped "out(" s
  | op -> fold_string basis (Op.to_string op)

(* Signatures live unboxed, eight bytes per vertex. *)
let[@inline] get b v = Bytes.get_int64_ne b (v lsl 3)
let[@inline] set b v x = Bytes.set_int64_ne b (v lsl 3) x

(* Signatures of every vertex. [acc] holds the running hash of the
   vertex being folded, in unboxed storage, so the fold closures are
   allocated once per call and not per vertex or per edge. *)
let signature_bytes g =
  let n = Graph.n_vertices g in
  let order = Topo.order g in
  let seed = Bytes.create (8 * n) in
  for v = 0 to n - 1 do
    set seed v (combine (op_hash (Graph.op g v)) (Int64.of_int (Graph.delay g v)))
  done;
  let acc = Bytes.create 8 in
  (* forward: operand-ordered fold over predecessor signatures *)
  let fwd = Bytes.create (8 * n) in
  let fold_pred p = set acc 0 (combine (get acc 0) (get fwd p)) in
  for k = 0 to n - 1 do
    let v = order.(k) in
    set acc 0 (get seed v);
    Graph.iter_preds fold_pred g v;
    set fwd v (mix (get acc 0))
  done;
  (* backward: commutative fold over successor signatures *)
  let bwd = Bytes.create (8 * n) in
  let fold_succ s = set acc 0 (Int64.add (get acc 0) (mix (get bwd s))) in
  for k = n - 1 downto 0 do
    let v = order.(k) in
    set acc 0 0L;
    Graph.iter_succs fold_succ g v;
    set bwd v (mix (combine (get seed v) (get acc 0)))
  done;
  (* the signature overwrites the forward hash in place *)
  for v = 0 to n - 1 do
    set fwd v (mix (combine (get fwd v) (get bwd v)))
  done;
  fwd

let signatures g = Array.init (Graph.n_vertices g) (get (signature_bytes g))

let hash g =
  let sigs = signature_bytes g in
  (* acc: the graph hash, then the signature of the vertex whose
     operands are being folded *)
  let acc = Bytes.create 16 in
  (* Commutative vertex and edge terms: insertion order washes out. *)
  set acc 0 (Int64.of_int (Graph.n_vertices g));
  Graph.iter_vertices (fun v -> set acc 0 (Int64.add (get acc 0) (mix (get sigs v)))) g;
  (* Edges fold the operand slot in, so swapping the operands of a
     non-commutative op moves the hash even between sibling vertices
     with equal signatures. *)
  let slot = ref 0 in
  let edge_term p =
    set acc 0
      (Int64.add (get acc 0)
         (mix (combine (combine (get sigs p) (get acc 1)) (Int64.of_int !slot))));
    incr slot
  in
  Graph.iter_vertices
    (fun v ->
      set acc 1 (get sigs v);
      slot := 0;
      Graph.iter_preds edge_term g v)
    g;
  mix (get acc 0)

let to_hex h =
  let digits = "0123456789abcdef" in
  String.init 16 (fun i ->
      digits.[Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15])

let key ?(meta = "topo") ~resources g =
  String.concat "|" [ to_hex (hash g); Resources.to_string resources; meta ]

(* Canonical serialization: vertices renamed n0, n1, ... in an
   order derived from the signatures (ties broken by original id, which
   cannot change the isomorphism class — tied vertices are
   indistinguishable up to the signature's resolution). The output is a
   valid [Serial] document whose parse is isomorphic to the input. *)
let canonical g =
  let sigs = signatures g in
  let order =
    List.sort
      (fun a b ->
        match Int64.unsigned_compare sigs.(a) sigs.(b) with
        | 0 -> compare a b
        | c -> c)
      (Graph.vertices g)
  in
  let rank = Hashtbl.create (Graph.n_vertices g) in
  List.iteri (fun i v -> Hashtbl.replace rank v i) order;
  let name v = Printf.sprintf "n%d" (Hashtbl.find rank v) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# canonical softsched dataflow graph\n";
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "vertex %s %s %d\n" (name v)
           (Op.to_string (Graph.op g v))
           (Graph.delay g v)))
    order;
  (* Pred edges in operand order (deduplicated: the graph's edge set is
     simple; a pred feeding two operand slots appears once). *)
  List.iter
    (fun v ->
      let seen = Hashtbl.create 4 in
      Graph.iter_preds
        (fun p ->
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.replace seen p ();
            Buffer.add_string buf
              (Printf.sprintf "edge %s %s\n" (name p) (name v))
          end)
        g v)
    order;
  Buffer.contents buf
