(** Minimal growable vector (OCaml 5.1 predates [Dynarray]).  Used for
    clause stores and for tabling consumer lists, which are iterated by
    index while growing. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let push v x =
  if v.len = Array.length v.data then begin
    let cap = max 8 (2 * Array.length v.data) in
    let data = Array.make cap x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let to_list v = List.init v.len (fun i -> v.data.(i))

let clear v =
  v.data <- [||];
  v.len <- 0

(* The backing array and the length: slots below the length are never
   written again ([push] writes only at the length, [retain] allocates a
   fresh array), so a reader can walk them while the vector changes. *)
let frozen_prefix v = (v.data, v.len)

(* Keep the elements satisfying [p], in order, in a fresh backing array. *)
let retain p v =
  let kept = List.filter p (to_list v) in
  v.data <- Array.of_list kept;
  v.len <- Array.length v.data
