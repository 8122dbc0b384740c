exception Parse_error of string

let to_string g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# softsched dataflow graph\n";
  Graph.iter_vertices
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "vertex %s %s %d\n" (Graph.name g v)
           (Op.to_string (Graph.op g v))
           (Graph.delay g v)))
    g;
  Graph.iter_edges
    (fun u v ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s\n" (Graph.name g u) (Graph.name g v)))
    g;
  Buffer.contents buf

(* The parser's helpers are top-level functions over explicit
   arguments rather than closures local to [of_string]: a local function
   with free variables costs an allocation per call, per word here. *)

(* [text.[s..e)] = [lit], without slicing. *)
let rec same_from text s lit k l =
  k = l || (String.unsafe_get text (s + k) = String.unsafe_get lit k
            && same_from text s lit (k + 1) l)

let word_is text s e lit =
  let l = String.length lit in
  e - s = l && same_from text s lit 0 l

(* Vertex name -> id, probed with a slice of the text so that a lookup
   allocates nothing: open addressing with linear probing, each slot
   holding id + 1 (0 is empty); the names are read back from the graph. *)
type names = { mutable slots : int array; mutable count : int }

let slice_hash text s e =
  let h = ref 0 in
  for k = s to e - 1 do
    h := (!h lxor Char.code (String.unsafe_get text k)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let rec probe g slots text s e k =
  let id = slots.(k) - 1 in
  if id < 0 || word_is text s e (Graph.name g id) then k
  else probe g slots text s e ((k + 1) land (Array.length slots - 1))

(* The slot holding [text.[s..e)], or the empty slot where it belongs. *)
let slot g names text s e =
  probe g names.slots text s e
    (slice_hash text s e land (Array.length names.slots - 1))

(* Records vertex [v] in the empty slot [k], keeping the load under one
   half. *)
let add_name g names k v =
  names.slots.(k) <- v + 1;
  names.count <- names.count + 1;
  if 2 * names.count > Array.length names.slots then begin
    let old = names.slots in
    names.slots <- Array.make (2 * Array.length old) 0;
    Array.iter
      (fun id1 ->
        if id1 > 0 then begin
          let name = Graph.name g (id1 - 1) in
          names.slots.(slot g names name 0 (String.length name)) <- id1
        end)
      old
  end

(* The current line's word bounds, kept for its first [max_words]
   words: no directive reads further, and a count past it is only ever
   "too many". [cursor] ends on the line's '\n' (or the end of the
   text). *)
type line = {
  text : string;
  starts : int array;
  stops : int array;
  mutable cursor : int;
}

let max_words = 5

let rec word_end text i =
  if i >= String.length text then i
  else
    match String.unsafe_get text i with
    | ' ' | '\t' | '\n' | '#' -> i
    | _ -> word_end text (i + 1)

let rec line_end text i =
  if i < String.length text && String.unsafe_get text i <> '\n' then
    line_end text (i + 1)
  else i

(* Bounds of the words from [i] up to the line's first '#' (only ' '
   and '\t' separate words); returns the line's word count. *)
let rec words ln i count =
  let text = ln.text in
  if i >= String.length text then begin
    ln.cursor <- i;
    count
  end
  else
    match String.unsafe_get text i with
    | ' ' | '\t' -> words ln (i + 1) count
    | '\n' ->
      ln.cursor <- i;
      count
    | '#' ->
      ln.cursor <- line_end text i;
      count
    | _ ->
      let e = word_end text i in
      if count < max_words then begin
        ln.starts.(count) <- i;
        ln.stops.(count) <- e
      end;
      words ln e (count + 1)

(* One pass over [text]: each line is cut into word bounds, then its
   directive is read off the bounds. Strings are allocated only for
   declared vertex names, op text and delays. *)
let of_string text =
  let n = String.length text in
  let g = Graph.create () in
  let names = { slots = Array.make 64 0; count = 0 } in
  let ln =
    { text; starts = Array.make max_words 0; stops = Array.make max_words 0;
      cursor = 0 }
  in
  let word k = String.sub text ln.starts.(k) (ln.stops.(k) - ln.starts.(k)) in
  let is k lit = word_is text ln.starts.(k) ln.stops.(k) lit in
  let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg)) in
  let lookup line k =
    let id = names.slots.(slot g names text ln.starts.(k) ln.stops.(k)) - 1 in
    if id < 0 then fail line (Printf.sprintf "undeclared vertex %S" (word k));
    id
  in
  let directive line count =
    if count = 0 then ()
    else if count >= 3 && is 0 "vertex" then begin
      let k = slot g names text ln.starts.(1) ln.stops.(1) in
      if names.slots.(k) > 0 then
        fail line (Printf.sprintf "duplicate vertex %S" (word 1));
      let op_text = word 2 in
      let op =
        match Op.of_string op_text with
        | Some op -> op
        | None -> fail line (Printf.sprintf "unknown op %S" op_text)
      in
      let delay =
        if count = 3 then None
        else if count = 4 then
          let delay_text = word 3 in
          match int_of_string_opt delay_text with
          | Some d when d >= 0 -> Some d
          | Some _ -> fail line "negative delay"
          | None -> fail line (Printf.sprintf "bad delay %S" delay_text)
        else fail line "trailing tokens after delay"
      in
      add_name g names k (Graph.add_vertex g ?delay ~name:(word 1) op)
    end
    else if count = 3 && is 0 "edge" then begin
      let u = lookup line 1 in
      let v = lookup line 2 in
      try Graph.add_edge g u v with Invalid_argument m -> fail line m
    end
    else fail line (Printf.sprintf "unknown directive %S" (word 0))
  in
  let rec line_at pos line =
    directive line (words ln pos 0);
    if ln.cursor < n then line_at (ln.cursor + 1) (line + 1)
  in
  line_at 0 1;
  g

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let save path g =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string g))
